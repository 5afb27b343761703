// The AVX-512 backend — the worked instance of the add-a-backend recipe in
// README.md. This translation unit is compiled with per-file -mavx512f
// -mavx512bw (see src/CMakeLists.txt) so a generic build still carries
// these kernels; whether they run is decided by the runtime cpu_features
// probe (AVX-512F + AVX-512BW on the CPU, plus OS ZMM state via the XGETBV
// probe extended to XCR0 bits 5-7).
//
// Hermetic like kernels_avx2.cpp: every helper is a TU-local static in an
// anonymous namespace, no uhd/common/simd.hpp include, scalar tails and the
// fixed 4-lane double accumulation restated locally — a header-inline body
// compiled here under -mavx512* could be COMDAT-selected for the whole
// program and execute AVX-512 code on machines the probe rejected.
//
// Popcount: the XOR-popcount family (the two query-block Hamming kernels
// and their per-pair reduction) exists in two flavors, expanded from
// kernels_avx512_family.inc — a VPOPCNTDQ flavor using the native
// _mm512_popcnt_epi64 (compiled in a #pragma GCC target region, so the
// TU's base flags never include it), and an AVX-512BW nibble-LUT +
// sad_epu8 fallback. The flavor is picked once per process from the probe:
// the backend is admissible on any F/BW part, and Ice-Lake-class machines
// get the native popcount without a separate backend.
#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "kernels_detail.hpp"

// GCC 12's unmasked AVX-512 intrinsics (shifts, broadcasts, extracts) are
// defined as masked builtins whose pass-through operand is
// _mm512_undefined_epi32() / _mm256_undefined_si256() — a deliberately
// uninitialized dummy that is fully dead (the write mask is all-ones) but
// still trips -Werror={,maybe-}uninitialized once inlined here, because
// those are middle-end warnings that ignore the system-header location.
// Suppress the two warnings for this TU only; clang's intrinsics don't
// have the dummy operand.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace uhd::kernels::detail {

namespace {

bool supported(const cpu_features& features) { return features.avx512_usable(); }

/// VPOPCNTDQ flavor gate, probed once (cannot change within a process).
bool use_vpopcnt() {
    static const bool value = cpu().avx512vpopcntdq;
    return value;
}

// --- scalar tails (TU-local copies) ---------------------------------------

void geq_tail(std::uint8_t q, const std::uint8_t* thresholds, std::size_t dim,
              std::uint16_t* geq16) {
    for (std::size_t d = 0; d < dim; ++d) {
        geq16[d] = static_cast<std::uint16_t>(geq16[d] + (q >= thresholds[d]));
    }
}

/// argmin2 update (rows fed in ascending order keep the first-wins rule).
void argmin2_update(argmin2_result& r, std::size_t row, std::uint64_t distance) {
    if (distance < r.distance) {
        r.runner_up = r.distance;
        r.distance = distance;
        r.index = row;
    } else if (distance < r.runner_up) {
        r.runner_up = distance;
    }
}

// --- threshold compare-accumulate -----------------------------------------

/// One pixel row into u16 counters: geq16[d] += (q >= thresholds[d]), 64
/// thresholds per step, any byte values — one unsigned byte compare into a
/// __mmask64, then two masked u16 subtracts of -1 (i.e. masked adds of 1)
/// over the two 32-lane accumulator halves.
void geq_row_accumulate(std::uint8_t q, const std::uint8_t* thresholds,
                        std::size_t dim, std::uint16_t* geq16) {
    const __m512i vq = _mm512_set1_epi8(static_cast<char>(q));
    const __m512i minus_one16 = _mm512_set1_epi16(-1);
    std::size_t d = 0;
    for (; d + 64 <= dim; d += 64) {
        const __m512i x = _mm512_loadu_si512(thresholds + d);
        const __mmask64 geq = _mm512_cmpge_epu8_mask(vq, x);
        __m512i lo = _mm512_loadu_si512(geq16 + d);
        lo = _mm512_mask_sub_epi16(lo, static_cast<__mmask32>(geq), lo, minus_one16);
        _mm512_storeu_si512(geq16 + d, lo);
        __m512i hi = _mm512_loadu_si512(geq16 + d + 32);
        hi = _mm512_mask_sub_epi16(hi, static_cast<__mmask32>(geq >> 32), hi,
                                   minus_one16);
        _mm512_storeu_si512(geq16 + d + 32, hi);
    }
    geq_tail(q, thresholds + d, dim - d, geq16 + d);
}

/// Block kernel: 256-dimension tiles held in four zmm registers of u8
/// counters. Per pixel and 64 dimensions: one load, one compare-to-mask,
/// one masked byte subtract — no accumulator memory traffic until the
/// every-255-pixel flush. Dimension tails fall back to the u16 row kernel.
/// Exact for any byte values, so `max_value` is not consulted.
void geq_block_accumulate(const std::uint8_t* q, std::size_t npix,
                          const std::uint8_t* bank, std::size_t stride,
                          std::size_t dim, std::int32_t* out,
                          std::uint8_t /*max_value*/) {
    constexpr std::size_t tile_dims = 256;
    const __m512i minus_one8 = _mm512_set1_epi8(-1);
    const auto flush64 = [](__m512i counters, std::int32_t* dst) {
        alignas(64) std::uint8_t lanes[64];
        _mm512_store_si512(lanes, counters);
        for (int i = 0; i < 64; ++i) dst[i] += lanes[i];
    };
    std::size_t d = 0;
    for (; d + tile_dims <= dim; d += tile_dims) {
        __m512i c0 = _mm512_setzero_si512();
        __m512i c1 = _mm512_setzero_si512();
        __m512i c2 = _mm512_setzero_si512();
        __m512i c3 = _mm512_setzero_si512();
        std::size_t pixels_in_tile = 0;
        const auto flush = [&] {
            flush64(c0, out + d);
            flush64(c1, out + d + 64);
            flush64(c2, out + d + 128);
            flush64(c3, out + d + 192);
            c0 = c1 = c2 = c3 = _mm512_setzero_si512();
            pixels_in_tile = 0;
        };
        for (std::size_t p = 0; p < npix; ++p) {
            const __m512i vq = _mm512_set1_epi8(static_cast<char>(q[p]));
            const std::uint8_t* row = bank + p * stride + d;
            const auto step = [&](const std::uint8_t* src, __m512i counters) {
                const __m512i x = _mm512_loadu_si512(src);
                const __mmask64 geq = _mm512_cmpge_epu8_mask(vq, x);
                return _mm512_mask_sub_epi8(counters, geq, counters, minus_one8);
            };
            c0 = step(row, c0);
            c1 = step(row + 64, c1);
            c2 = step(row + 128, c2);
            c3 = step(row + 192, c3);
            if (++pixels_in_tile == 255) flush();
        }
        if (pixels_in_tile != 0) flush();
    }
    if (d < dim) {
        // Row-kernel fallback over the remaining dimensions with u16
        // counters, flushed before a lane can overflow.
        const std::size_t tail_dim = dim - d;
        std::uint16_t tile16[tile_dims]; // tail_dim < 256
        for (std::size_t i = 0; i < tail_dim; ++i) tile16[i] = 0;
        std::size_t pixels_in_tile = 0;
        const auto flush16 = [&] {
            for (std::size_t i = 0; i < tail_dim; ++i) out[d + i] += tile16[i];
            for (std::size_t i = 0; i < tail_dim; ++i) tile16[i] = 0;
            pixels_in_tile = 0;
        };
        for (std::size_t p = 0; p < npix; ++p) {
            geq_row_accumulate(q[p], bank + p * stride + d, tail_dim, tile16);
            if (++pixels_in_tile == 65535) flush16();
        }
        if (pixels_in_tile != 0) flush16();
    }
}

// --- rematerializing encode kernel ----------------------------------------

/// Gray-code 16-blocks as one 16-lane vector: the broadcast base state is
/// XORed with the per-pixel delta table (gray(16m + k) = gray(16m) ^
/// gray(k)), the unsigned compare against the pixel's bound is one
/// cmple_epu32 to a __mmask16, and a masked subtract of -1 adds the
/// comparison results into the int32 out tile. Unaligned head/tail run the
/// serial Gray-code recurrence — pure integer accumulation, bit-identical
/// to the scalar reference. No popcount involved, so no flavor split.
void geq_rematerialize_accumulate(const std::uint32_t* directions,
                                  std::size_t dir_words, const std::uint32_t* shifts,
                                  const std::uint32_t* bounds, std::size_t npix,
                                  std::uint64_t d_begin, std::size_t dim_count,
                                  std::int32_t* out) {
    const __m512i minus_one32 = _mm512_set1_epi32(-1);
    for (std::size_t p = 0; p < npix; ++p) {
        const std::uint32_t* v = directions + p * dir_words;
        std::uint32_t state = shifts[p];
        for (std::uint64_t g = d_begin ^ (d_begin >> 1); g != 0; g &= g - 1) {
            state ^= v[std::countr_zero(g)];
        }
        const std::uint32_t bound = bounds[p];
        std::uint64_t index = d_begin;
        const std::uint64_t end = d_begin + dim_count;
        std::size_t j = 0;
        if (dir_words < 5) {
            // Dimension too small for 16-blocks (delta table and block
            // stepping need v[0..4]); plain serial stepping.
            for (; index < end; ++index, ++j) {
                out[j] += static_cast<std::int32_t>(state <= bound);
                state ^= v[std::countr_zero(index + 1)];
            }
            continue;
        }
        for (; index < end && (index & 15) != 0; ++index, ++j) {
            out[j] += static_cast<std::int32_t>(state <= bound);
            state ^= v[std::countr_zero(index + 1)];
        }
        alignas(64) std::uint32_t delta[16];
        delta[0] = 0;
        for (unsigned k = 1; k < 16; ++k) {
            delta[k] = delta[k - 1] ^ v[std::countr_zero(k)];
        }
        const __m512i dv = _mm512_load_si512(delta);
        const __m512i vb = _mm512_set1_epi32(static_cast<int>(bound));
        for (; index + 16 <= end; index += 16, j += 16) {
            const __m512i x =
                _mm512_xor_si512(_mm512_set1_epi32(static_cast<int>(state)), dv);
            const __mmask16 le = _mm512_cmple_epu32_mask(x, vb);
            const __m512i o = _mm512_loadu_si512(out + j);
            _mm512_storeu_si512(out + j,
                                _mm512_mask_sub_epi32(o, le, o, minus_one32));
            // Block step 16m -> 16(m+1): gray difference bits {3, ctz(m+1)+4}.
            state ^= v[3] ^ v[std::countr_zero((index >> 4) + 1) + 4];
        }
        for (; index < end; ++index, ++j) {
            out[j] += static_cast<std::int32_t>(state <= bound);
            state ^= v[std::countr_zero(index + 1)];
        }
    }
}

// --- sign binarize --------------------------------------------------------

/// Sixteen int32 sign bits per compare-to-mask (AVX-512F — no DQ movepi
/// needed), so one output word is four loads + mask shifts.
void sign_binarize(const std::int32_t* v, std::size_t n, std::uint64_t* words) {
    const __m512i zero = _mm512_setzero_si512();
    std::size_t d = 0;
    std::size_t w = 0;
    for (; d + 64 <= n; d += 64, ++w) {
        std::uint64_t bits = 0;
        for (std::size_t i = 0; i < 4; ++i) {
            const __m512i x = _mm512_loadu_si512(v + d + 16 * i);
            const __mmask16 negative = _mm512_cmp_epi32_mask(x, zero, _MM_CMPINT_LT);
            bits |= static_cast<std::uint64_t>(
                        static_cast<std::uint16_t>(negative))
                    << (16 * i);
        }
        words[w] = bits;
    }
    if (d < n) {
        std::uint64_t bits = 0;
        for (std::size_t i = 0; d + i < n; ++i) {
            if (v[d + i] < 0) bits |= std::uint64_t{1} << i;
        }
        words[w] = bits;
    }
}

// --- XOR-popcount family (two flavors, runtime-selected) ------------------

/// Horizontal sum of the eight u64 lanes. Not _mm512_reduce_add_epi64: GCC
/// 12 expands that through _mm256_undefined_si256, whose self-initialized
/// dummy trips -Werror=uninitialized/-Wmaybe-uninitialized in UHD_WERROR
/// builds — reduce through extracts so every value is defined.
std::uint64_t reduce_add_u64(__m512i v) {
    const __m256i sum256 = _mm256_add_epi64(_mm512_castsi512_si256(v),
                                            _mm512_extracti64x4_epi64(v, 1));
    const __m128i sum128 = _mm_add_epi64(_mm256_castsi256_si128(sum256),
                                         _mm256_extracti128_si256(sum256, 1));
    const __m128i swapped = _mm_unpackhi_epi64(sum128, sum128);
    return static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm_add_epi64(sum128, swapped)));
}

/// Per-64-lane popcount of a 512-bit vector with the pshufb nibble LUT and
/// sad_epu8 — the AVX-512BW fallback for parts without VPOPCNTDQ.
__m512i popcount512_lut(__m512i x) {
    const __m512i low_nibble = _mm512_set1_epi8(0x0F);
    const __m512i lut = _mm512_broadcast_i32x4(
        _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
    const __m512i lo = _mm512_shuffle_epi8(lut, _mm512_and_si512(x, low_nibble));
    const __m512i hi = _mm512_shuffle_epi8(
        lut, _mm512_and_si512(_mm512_srli_epi32(x, 4), low_nibble));
    return _mm512_sad_epu8(_mm512_add_epi8(lo, hi), _mm512_setzero_si512());
}

#define UHD_AVX512_FN(name) name##_lut
#define UHD_AVX512_POPCNT(x) popcount512_lut(x)
#include "kernels_avx512_family.inc"
#undef UHD_AVX512_FN
#undef UHD_AVX512_POPCNT

#pragma GCC push_options
#pragma GCC target("avx512vpopcntdq")
#define UHD_AVX512_FN(name) name##_vpopcnt
#define UHD_AVX512_POPCNT(x) _mm512_popcnt_epi64(x)
#include "kernels_avx512_family.inc"
#undef UHD_AVX512_FN
#undef UHD_AVX512_POPCNT
#pragma GCC pop_options

// Table entries dispatch on the probed flavor. Both flavors compute exact
// integer popcounts, so the choice is invisible to results — only to speed.

void hamming_block_extend(const std::uint64_t* queries, std::size_t query_words,
                          std::size_t n_queries, const std::uint64_t* rows,
                          std::size_t row_words, std::size_t from_word,
                          std::size_t to_word, std::size_t n_rows,
                          std::uint64_t* distances) {
    if (use_vpopcnt()) {
        hamming_block_extend_vpopcnt(queries, query_words, n_queries, rows,
                                     row_words, from_word, to_word, n_rows,
                                     distances);
    } else {
        hamming_block_extend_lut(queries, query_words, n_queries, rows, row_words,
                                 from_word, to_word, n_rows, distances);
    }
}

void hamming_block_argmin2_prefix(const std::uint64_t* queries,
                                  std::size_t query_words, std::size_t n_queries,
                                  const std::uint64_t* rows, std::size_t row_words,
                                  std::size_t prefix_words, std::size_t n_rows,
                                  argmin2_result* results) {
    if (use_vpopcnt()) {
        hamming_block_argmin2_prefix_vpopcnt(queries, query_words, n_queries, rows,
                                             row_words, prefix_words, n_rows,
                                             results);
    } else {
        hamming_block_argmin2_prefix_lut(queries, query_words, n_queries, rows,
                                         row_words, prefix_words, n_rows, results);
    }
}

// --- blocked int32 dot kernels --------------------------------------------
//
// Identical fixed 4-lane algorithm as the portable bodies (simd.hpp): the
// lane split pins the FP addition order, so the -mavx512* compilation may
// vectorize the lanes but cannot change the result.

double sum_squares_i32(const std::int32_t* v, std::size_t n) {
    double lanes[4] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t main_n = n & ~std::size_t{3};
    for (std::size_t i = 0; i < main_n; i += 4) {
        for (std::size_t l = 0; l < 4; ++l) {
            const std::int64_t x = v[i + l];
            lanes[l] += static_cast<double>(x * x);
        }
    }
    for (std::size_t i = main_n; i < n; ++i) {
        const std::int64_t x = v[i];
        lanes[i % 4] += static_cast<double>(x * x);
    }
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

double dot_i32(const std::int32_t* a, const std::int32_t* b, std::size_t n) {
    double lanes[4] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t main_n = n & ~std::size_t{3};
    for (std::size_t i = 0; i < main_n; i += 4) {
        for (std::size_t l = 0; l < 4; ++l) {
            lanes[l] += static_cast<double>(static_cast<std::int64_t>(a[i + l]) *
                                            static_cast<std::int64_t>(b[i + l]));
        }
    }
    for (std::size_t i = main_n; i < n; ++i) {
        lanes[i % 4] += static_cast<double>(static_cast<std::int64_t>(a[i]) *
                                            static_cast<std::int64_t>(b[i]));
    }
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

constexpr kernel_table table{
    "avx512",
    supported,
    geq_block_accumulate,
    geq_rematerialize_accumulate,
    sign_binarize,
    hamming_block_extend,
    hamming_block_argmin2_prefix,
    sum_squares_i32,
    dot_i32,
};

} // namespace

const kernel_table& avx512_table() noexcept { return table; }

} // namespace uhd::kernels::detail

#else
#error "kernels_avx512.cpp requires -mavx512f -mavx512bw (set per-file by src/CMakeLists.txt)"
#endif // __AVX512F__ && __AVX512BW__

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
// Popcount: the XOR-popcount family (the query-block search kernel and its
// per-pair reduction) exists in two flavors, expanded from
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

// --- scalar helpers (TU-local copies) -------------------------------------

/// argmin2 update (rows fed in ascending order keep the first-wins rule).
/// With Running, the distance first extends the running total
/// distances[at], and the total competes.
template <bool Running>
[[gnu::always_inline]] inline void argmin2_update(argmin2_result& r, std::size_t row,
                                                  std::uint64_t distance,
                                                  std::uint64_t* distances,
                                                  std::size_t at) {
    if constexpr (Running) {
        distance += distances[at];
        distances[at] = distance;
    }
    if (distance < r.distance) {
        r.runner_up = r.distance;
        r.distance = distance;
        r.index = row;
    } else if (distance < r.runner_up) {
        r.runner_up = distance;
    }
}

// --- bit-plane threshold count -------------------------------------------

/// Dimension words per bank chunk (kernels::plane_chunk_words, restated:
/// one zmm of every plane).
constexpr std::size_t chunk_words = 8;

/// Comparator operand per quantized level: mask[l][k] is all-ones when bit k
/// of level l is set, broadcast from memory into the comparator's third
/// operand (one load per plane, no integer work per pixel).
struct level_mask_table {
    std::uint64_t mask[256][8];
};

constexpr level_mask_table make_level_masks() {
    level_mask_table table{};
    for (unsigned level = 0; level < 256; ++level) {
        for (unsigned k = 0; k < 8; ++k) {
            table.mask[level][k] = ((level >> k) & 1u) != 0 ? ~std::uint64_t{0} : 0;
        }
    }
    return table;
}

constexpr level_mask_table level_masks = make_level_masks();

/// Carry-save adder over 512 bit lanes: a + b + c = low + 2 * high
/// (ternary logic 0x96 is the three-way XOR, 0xE8 the majority).
[[gnu::always_inline]] inline void carry_save_add(__m512i& high, __m512i& low,
                                                  __m512i a, __m512i b, __m512i c) {
    high = _mm512_ternarylogic_epi64(a, b, c, 0xE8);
    low = _mm512_ternarylogic_epi64(a, b, c, 0x96);
}

/// Add a one-bit-per-lane vector into the counter planes [from, n_planes).
[[gnu::always_inline]] inline void ripple_add(__m512i* counter, std::size_t from,
                                              std::size_t n_planes, __m512i carry) {
    for (std::size_t j = from; j < n_planes; ++j) {
        const __m512i c = counter[j];
        counter[j] = _mm512_xor_si512(c, carry);
        carry = _mm512_and_si512(c, carry);
    }
}

/// One listed pixel's comparator output level >= T over one chunk: one
/// ternary-logic op per plane, 0xB2 = maj(~T_k, ge, L_k), L_k broadcast from
/// the level's mask row. `s` points at the pixel's plane 0; planes are
/// `width` words apart. A full chunk (Full, width 8) loads plainly; a ragged
/// one loads under `lanes`, so masked-off lanes read nothing.
template <std::size_t M, bool Full>
[[gnu::always_inline]] inline __m512i pixel_geq(const std::uint64_t* s,
                                                std::size_t width, __mmask8 lanes,
                                                std::uint32_t level) {
    const std::uint64_t* mask = level_masks.mask[level];
    __m512i g = _mm512_set1_epi64(-1);
    for (std::size_t k = 0; k < M; ++k) {
        const __m512i plane = Full ? _mm512_loadu_si512(s + k * chunk_words)
                                   : _mm512_maskz_loadu_epi64(lanes, s + k * width);
        g = _mm512_ternarylogic_epi64(
            g, plane, _mm512_set1_epi64(static_cast<long long>(mask[k])), 0xB2);
    }
    return g;
}

/// One bank chunk for the listed pixels, M planes per pixel, on top of the
/// base counts already in `counter`: sixteen comparator outputs fold
/// through the Harley-Seal tree into the ones..eights planes (seeded from
/// counter[0..3]) and the sixteens plane ripples into counter[4..).
template <std::size_t M, bool Full>
void count_chunk(const active_pixel* active, std::size_t n_active,
                 const std::uint64_t* chunk, std::size_t width, __mmask8 lanes,
                 std::size_t n_planes, __m512i* counter) {
    // Listed pixel i's comparator output. A functor, not a lambda: GCC
    // declines to inline a lambda here once it indexes the list, and an
    // out-of-line call per pixel costs more than the compare.
    struct listed_geq {
        const active_pixel* active;
        const std::uint64_t* chunk;
        std::size_t width;
        __mmask8 lanes;
        [[gnu::always_inline]] __m512i operator()(std::size_t i) const {
            const std::size_t stride = M * (Full ? chunk_words : width);
            return pixel_geq<M, Full>(chunk + std::size_t{active[i].pixel} * stride,
                                      width, lanes, active[i].level);
        }
    };
    const listed_geq ge{active, chunk, width, lanes};
    std::size_t i = 0;
    if (n_planes > 4) {
        __m512i ones = counter[0], twos = counter[1];
        __m512i fours = counter[2], eights = counter[3];
        for (; i + 16 <= n_active; i += 16) {
            __m512i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
            carry_save_add(twos_a, ones, ones, ge(i + 0), ge(i + 1));
            carry_save_add(twos_b, ones, ones, ge(i + 2), ge(i + 3));
            carry_save_add(fours_a, twos, twos, twos_a, twos_b);
            carry_save_add(twos_a, ones, ones, ge(i + 4), ge(i + 5));
            carry_save_add(twos_b, ones, ones, ge(i + 6), ge(i + 7));
            carry_save_add(fours_b, twos, twos, twos_a, twos_b);
            carry_save_add(eights_a, fours, fours, fours_a, fours_b);
            carry_save_add(twos_a, ones, ones, ge(i + 8), ge(i + 9));
            carry_save_add(twos_b, ones, ones, ge(i + 10), ge(i + 11));
            carry_save_add(fours_a, twos, twos, twos_a, twos_b);
            carry_save_add(twos_a, ones, ones, ge(i + 12), ge(i + 13));
            carry_save_add(twos_b, ones, ones, ge(i + 14), ge(i + 15));
            carry_save_add(fours_b, twos, twos, twos_a, twos_b);
            carry_save_add(eights_b, fours, fours, fours_a, fours_b);
            carry_save_add(sixteens, eights, eights, eights_a, eights_b);
            ripple_add(counter, 4, n_planes, sixteens);
        }
        counter[0] = ones;
        counter[1] = twos;
        counter[2] = fours;
        counter[3] = eights;
    }
    for (; i < n_active; ++i) ripple_add(counter, 0, n_planes, ge(i));
}

template <std::size_t M>
void count_chunk(const active_pixel* active, std::size_t n_active,
                 const std::uint64_t* chunk, std::size_t width, __mmask8 lanes,
                 std::size_t n_planes, __m512i* counter) {
    if (width == chunk_words) {
        count_chunk<M, true>(active, n_active, chunk, width, lanes, n_planes, counter);
    } else {
        count_chunk<M, false>(active, n_active, chunk, width, lanes, n_planes, counter);
    }
}

void geq_plane_count(const active_pixel* active, std::size_t n_active, std::size_t npix,
                     const std::uint64_t* planes, std::size_t m, std::size_t words,
                     const std::uint64_t* base, std::uint64_t* counters) {
    const auto n_planes = static_cast<std::size_t>(std::bit_width(npix));
    __m512i counter[64];
    for (std::size_t first = 0; first < words; first += chunk_words) {
        const std::size_t width =
            words - first < chunk_words ? words - first : chunk_words;
        const auto lanes = static_cast<__mmask8>((1u << width) - 1);
        const std::uint64_t* chunk = planes + first * npix * m;
        for (std::size_t j = 0; j < n_planes; ++j) {
            counter[j] = _mm512_maskz_loadu_epi64(lanes, base + j * words + first);
        }
        switch (m) {
        case 1: count_chunk<1>(active, n_active, chunk, width, lanes, n_planes, counter); break;
        case 2: count_chunk<2>(active, n_active, chunk, width, lanes, n_planes, counter); break;
        case 3: count_chunk<3>(active, n_active, chunk, width, lanes, n_planes, counter); break;
        case 4: count_chunk<4>(active, n_active, chunk, width, lanes, n_planes, counter); break;
        case 5: count_chunk<5>(active, n_active, chunk, width, lanes, n_planes, counter); break;
        case 6: count_chunk<6>(active, n_active, chunk, width, lanes, n_planes, counter); break;
        case 7: count_chunk<7>(active, n_active, chunk, width, lanes, n_planes, counter); break;
        default: count_chunk<8>(active, n_active, chunk, width, lanes, n_planes, counter); break;
        }
        for (std::size_t j = 0; j < n_planes; ++j) {
            _mm512_mask_storeu_epi64(counters + j * words + first, lanes, counter[j]);
        }
    }
}

/// The int32 finisher: sixteen dimensions per step, each counter plane's
/// 16-bit slice used directly as the write mask of one masked add of the
/// plane's weight 2^(j+1), on top of out - tau2.
void plane_count_center(const std::uint64_t* counters, std::size_t n_planes,
                        std::size_t words, std::size_t n, std::int32_t tau2,
                        std::int32_t* out) {
    __m512i weight[32];
    for (std::size_t j = 0; j < n_planes && j < 32; ++j) {
        weight[j] = _mm512_set1_epi32(static_cast<int>(std::uint32_t{2} << j));
    }
    const __m512i tau = _mm512_set1_epi32(tau2);
    for (std::size_t d = 0; d < n; d += 16) {
        const std::uint64_t* word = counters + d / 64;
        const unsigned shift = static_cast<unsigned>(d % 64);
        const std::size_t left = n - d;
        const auto keep =
            left >= 16 ? static_cast<__mmask16>(0xFFFF)
                       : static_cast<__mmask16>((1u << left) - 1);
        __m512i acc = _mm512_sub_epi32(_mm512_maskz_loadu_epi32(keep, out + d), tau);
        for (std::size_t j = 0; j < n_planes; ++j) {
            const auto bits = static_cast<__mmask16>(word[j * words] >> shift);
            acc = _mm512_mask_add_epi32(acc, bits, acc, weight[j]);
        }
        _mm512_mask_storeu_epi32(out + d, keep, acc);
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

// --- Sobol bit-plane bank build -------------------------------------------

/// ld::quantize_fraction's rule on 16 u32 lanes: (f * scale + 2^31) >> 32,
/// two 32 x 32 -> 64 multiplies (even lanes, then the odd lanes shifted
/// down), each result the high dword of its product.
[[gnu::always_inline]] inline __m512i quantize16(__m512i f, __m512i scale,
                                                 __m512i half) {
    const __m512i even = _mm512_add_epi64(_mm512_mul_epu32(f, scale), half);
    const __m512i odd =
        _mm512_add_epi64(_mm512_mul_epu32(_mm512_srli_epi64(f, 32), scale), half);
    return _mm512_mask_blend_epi32(0xAAAA, _mm512_srli_epi64(even, 32), odd);
}

/// One pixel's build for M planes. A dimension word is one aligned Gray
/// block of 64, x(64w + j) = x(64w) ^ x(j): the broadcast state XORs four
/// 16-lane delta vectors, which are quantized and narrowed to 64 bytes by
/// two unsigned-saturating packs. The packs interleave within 128-bit
/// lanes, so delta vector g lane i holds x(16 (i / 4) + 4 g + i % 4) and
/// byte b of the packed word is dimension b. Minus one gives T (S = 0
/// wraps to all-ones), and bit k of every byte is one test-to-mask: plane
/// k's word. Once a chunk's words are written, its plane rows are read
/// back and split into the 2^M minterms T = t over the valid dimensions;
/// their popcounts are the level counts, and minterm 2^M - 1 (S = 0) is
/// the zero mask.
template <std::size_t M>
void sobol_plane_row_m(const std::uint32_t* v, std::uint32_t shift, unsigned levels,
                       std::size_t dim, std::size_t npix, std::size_t pixel,
                       std::uint64_t* planes, std::uint32_t* level_counts,
                       std::uint64_t* zero_words) {
    constexpr std::size_t terms = std::size_t{1} << M;
    const std::size_t words = (dim + 63) / 64;
    alignas(64) std::uint32_t gray[64];
    gray[0] = 0;
    for (unsigned j = 1; j < 64; ++j) gray[j] = gray[j - 1] ^ v[std::countr_zero(j)];
    __m512i delta[4];
    for (unsigned g = 0; g < 4; ++g) {
        alignas(64) std::uint32_t lanes[16];
        for (unsigned i = 0; i < 16; ++i) lanes[i] = gray[16 * (i / 4) + 4 * g + i % 4];
        delta[g] = _mm512_load_si512(lanes);
    }
    const __m512i scale = _mm512_set1_epi64(static_cast<long long>(levels - 1));
    const __m512i half = _mm512_set1_epi64(1LL << 31);
    const __m512i one = _mm512_set1_epi8(1);
    const __m512i all_ones = _mm512_set1_epi64(-1);
    __m512i counts[terms];
    for (__m512i& c : counts) c = _mm512_setzero_si512();
    std::uint32_t state = shift; // x(64w) ^ shift
    for (std::size_t first = 0; first < words; first += chunk_words) {
        const std::size_t width = words - first < chunk_words ? words - first : chunk_words;
        std::uint64_t* rows = planes + first * npix * M + pixel * M * width;
        alignas(64) std::uint64_t valid[chunk_words] = {};
        for (std::size_t i = 0; i < width; ++i) {
            const std::size_t w = first + i;
            const __m512i base = _mm512_set1_epi32(static_cast<int>(state));
            const __m512i low = _mm512_packus_epi32(
                quantize16(_mm512_xor_si512(base, delta[0]), scale, half),
                quantize16(_mm512_xor_si512(base, delta[1]), scale, half));
            const __m512i high = _mm512_packus_epi32(
                quantize16(_mm512_xor_si512(base, delta[2]), scale, half),
                quantize16(_mm512_xor_si512(base, delta[3]), scale, half));
            const std::size_t n = dim - 64 * w;
            valid[i] = n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
            // T past dim is all-ones.
            const __m512i t = _mm512_mask_blend_epi8(
                valid[i], all_ones, _mm512_sub_epi8(_mm512_packus_epi16(low, high), one));
            for (std::size_t k = 0; k < M; ++k) {
                rows[k * width + i] = static_cast<std::uint64_t>(_mm512_test_epi8_mask(
                    t, _mm512_set1_epi8(static_cast<char>(1u << k))));
            }
            // Block step w -> w + 1: gray(64w) ^ gray(64w + 64) has exactly
            // bits {5, countr_zero(w + 1) + 6} set.
            if (w + 1 < words) state ^= v[5] ^ v[std::countr_zero(w + 1) + 6];
        }
        const auto lanes = static_cast<__mmask8>((1u << width) - 1);
        __m512i node[terms];
        node[0] = _mm512_load_si512(valid);
        for (std::size_t k = M; k-- > 0;) {
            const __m512i plane = _mm512_maskz_loadu_epi64(lanes, rows + k * width);
            for (std::size_t j = terms >> (k + 1); j-- > 0;) {
                node[2 * j + 1] = _mm512_and_si512(node[j], plane);
                node[2 * j] = _mm512_andnot_si512(plane, node[j]);
            }
        }
        _mm512_mask_storeu_epi64(zero_words + first, lanes, node[terms - 1]);
        for (std::size_t j = 0; j < terms; ++j) {
            counts[j] = _mm512_add_epi64(counts[j], popcount512_lut(node[j]));
        }
    }
    for (unsigned q = 0; q < levels; ++q) {
        level_counts[q] =
            static_cast<std::uint32_t>(reduce_add_u64(counts[(q - 1) & (terms - 1)]));
    }
}

void sobol_plane_row(const std::uint32_t* directions, std::uint32_t shift,
                     unsigned levels, std::size_t dim, std::size_t npix, std::size_t pixel,
                     std::uint64_t* planes, std::uint32_t* level_counts,
                     std::uint64_t* zero_words) {
    switch (std::bit_width(levels - 1)) {
    case 1: sobol_plane_row_m<1>(directions, shift, levels, dim, npix, pixel, planes, level_counts, zero_words); break;
    case 2: sobol_plane_row_m<2>(directions, shift, levels, dim, npix, pixel, planes, level_counts, zero_words); break;
    case 3: sobol_plane_row_m<3>(directions, shift, levels, dim, npix, pixel, planes, level_counts, zero_words); break;
    case 4: sobol_plane_row_m<4>(directions, shift, levels, dim, npix, pixel, planes, level_counts, zero_words); break;
    case 5: sobol_plane_row_m<5>(directions, shift, levels, dim, npix, pixel, planes, level_counts, zero_words); break;
    case 6: sobol_plane_row_m<6>(directions, shift, levels, dim, npix, pixel, planes, level_counts, zero_words); break;
    case 7: sobol_plane_row_m<7>(directions, shift, levels, dim, npix, pixel, planes, level_counts, zero_words); break;
    default: sobol_plane_row_m<8>(directions, shift, levels, dim, npix, pixel, planes, level_counts, zero_words); break;
    }
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

// The table entry picks the probed flavor and the running-distance step
// once per call. Both flavors compute exact integer popcounts, so the
// flavor is invisible to results — only to speed.
void hamming_block_argmin2_prefix(const std::uint64_t* queries,
                                  std::size_t query_words, std::size_t n_queries,
                                  const std::uint64_t* rows, std::size_t row_words,
                                  std::size_t from_word, std::size_t prefix_words,
                                  std::size_t n_rows, std::uint64_t* distances,
                                  argmin2_result* results) {
    const bool running = distances != nullptr;
    const auto body = use_vpopcnt() ? (running ? argmin2_prefix_body_vpopcnt<true>
                                               : argmin2_prefix_body_vpopcnt<false>)
                                    : (running ? argmin2_prefix_body_lut<true>
                                               : argmin2_prefix_body_lut<false>);
    body(queries, query_words, n_queries, rows, row_words, from_word, prefix_words,
         n_rows, distances, results);
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
    sobol_plane_row,
    geq_plane_count,
    plane_count_center,
    geq_rematerialize_accumulate,
    sign_binarize,
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

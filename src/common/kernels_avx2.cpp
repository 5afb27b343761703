// The AVX2 backend. This translation unit is compiled with a per-file
// -mavx2 (see src/CMakeLists.txt) so a generic build — no -march=native,
// no global -mavx2 — still carries these kernels; whether they run is
// decided by the runtime cpu_features probe (CPU AVX2 + OS YMM state).
//
// The TU is deliberately hermetic: every helper is a TU-local static in an
// anonymous namespace, and it does not include uhd/common/simd.hpp. A
// header-inline function odr-used here would be emitted under -mavx2 as a
// COMDAT candidate, and the linker is free to pick that copy for the whole
// program — which would execute AVX2 code on machines the probe rejected.
// Tail loops and the shared 4-lane double-accumulation algorithm are
// therefore (re)stated locally; the dot/sum kernels run the *identical*
// fixed-lane-order algorithm as the portable bodies, so their results are
// bit-identical across backends (IEEE semantics are preserved — -mavx2
// does not license FP reassociation).
#ifdef __AVX2__

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "kernels_detail.hpp"

namespace uhd::kernels::detail {

namespace {

bool supported(const cpu_features& features) { return features.avx2_usable(); }

// --- bit-plane threshold count -------------------------------------------

/// Dimension words per bank chunk (kernels::plane_chunk_words, restated);
/// this backend walks each chunk as two 256-bit halves.
constexpr std::size_t chunk_words = 8;

/// Comparator operand per quantized level: mask[l][k] is all-ones when bit k
/// of level l is set, broadcast from memory (one load per plane, no integer
/// work per pixel).
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

/// Carry-save adder over 256 bit lanes: a + b + c = low + 2 * high.
[[gnu::always_inline]] inline void carry_save_add(__m256i& high, __m256i& low,
                                                  __m256i a, __m256i b, __m256i c) {
    const __m256i u = _mm256_xor_si256(a, b);
    high = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
    low = _mm256_xor_si256(u, c);
}

/// Add a one-bit-per-lane vector into the counter planes [from, n_planes).
[[gnu::always_inline]] inline void ripple_add(__m256i* counter, std::size_t from,
                                              std::size_t n_planes, __m256i carry) {
    for (std::size_t j = from; j < n_planes; ++j) {
        const __m256i c = counter[j];
        counter[j] = _mm256_xor_si256(c, carry);
        carry = _mm256_and_si256(c, carry);
    }
}

/// One listed pixel's comparator output level >= T over one 256-bit half:
/// the majority maj(~T_k, ge, L_k) per plane as or/andnot/and/or, L_k
/// broadcast from the level's mask row. `s` points at the half of the
/// pixel's plane 0; planes are `stride` words apart. A full half loads
/// plainly; a ragged one through `lanes` (maskload reads nothing in
/// masked-off lanes).
template <std::size_t M, bool Full>
[[gnu::always_inline]] inline __m256i pixel_geq(const std::uint64_t* s,
                                                std::size_t stride, __m256i lanes,
                                                std::uint32_t level) {
    const std::uint64_t* mask = level_masks.mask[level];
    __m256i g = _mm256_set1_epi64x(-1);
    for (std::size_t k = 0; k < M; ++k) {
        const __m256i plane =
            Full ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + k * stride))
                 : _mm256_maskload_epi64(reinterpret_cast<const long long*>(s + k * stride),
                                         lanes);
        const __m256i lk = _mm256_set1_epi64x(static_cast<long long>(mask[k]));
        g = _mm256_or_si256(_mm256_andnot_si256(plane, _mm256_or_si256(g, lk)),
                            _mm256_and_si256(g, lk));
    }
    return g;
}

/// One 256-bit half of a bank chunk for the listed pixels, M planes per
/// pixel, on top of the base counts already in `counter`. `half` points at
/// the half's first word of pixel 0's plane 0; `stride` is the chunk's width
/// in words (plane k of pixel p sits at half + (p * M + k) * stride). The
/// Harley-Seal tree, its seeding and the counter ripple match the AVX-512
/// body.
template <std::size_t M, bool Full>
void count_half(const active_pixel* active, std::size_t n_active,
                const std::uint64_t* half, std::size_t stride, __m256i lanes,
                std::size_t n_planes, __m256i* counter) {
    // Listed pixel i's comparator output (a functor, not a lambda, for the
    // reason given in the AVX-512 body).
    struct listed_geq {
        const active_pixel* active;
        const std::uint64_t* half;
        std::size_t stride;
        __m256i lanes;
        [[gnu::always_inline]] __m256i operator()(std::size_t i) const {
            const std::size_t width = Full ? chunk_words : stride;
            return pixel_geq<M, Full>(half + std::size_t{active[i].pixel} * M * width,
                                      width, lanes, active[i].level);
        }
    };
    const listed_geq ge{active, half, stride, lanes};
    std::size_t i = 0;
    if (n_planes > 4) {
        __m256i ones = counter[0], twos = counter[1];
        __m256i fours = counter[2], eights = counter[3];
        for (; i + 16 <= n_active; i += 16) {
            __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
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
void count_half(const active_pixel* active, std::size_t n_active,
                const std::uint64_t* half, std::size_t stride, bool full, __m256i lanes,
                std::size_t n_planes, __m256i* counter) {
    if (full && stride == chunk_words) {
        count_half<M, true>(active, n_active, half, stride, lanes, n_planes, counter);
    } else {
        count_half<M, false>(active, n_active, half, stride, lanes, n_planes, counter);
    }
}

void geq_plane_count(const active_pixel* active, std::size_t n_active, std::size_t npix,
                     const std::uint64_t* planes, std::size_t m, std::size_t words,
                     const std::uint64_t* base, std::uint64_t* counters) {
    const auto n_planes = static_cast<std::size_t>(std::bit_width(npix));
    __m256i counter[64];
    for (std::size_t first = 0; first < words; first += chunk_words) {
        const std::size_t width =
            words - first < chunk_words ? words - first : chunk_words;
        const std::uint64_t* chunk = planes + first * npix * m;
        for (std::size_t offset = 0; offset < width; offset += 4) {
            const std::size_t used = width - offset < 4 ? width - offset : 4;
            const bool full = used == 4;
            const __m256i lanes = _mm256_cmpgt_epi64(
                _mm256_set1_epi64x(static_cast<long long>(used)),
                _mm256_setr_epi64x(0, 1, 2, 3));
            for (std::size_t j = 0; j < n_planes; ++j) {
                counter[j] = _mm256_maskload_epi64(
                    reinterpret_cast<const long long*>(base + j * words + first + offset),
                    lanes);
            }
            const std::uint64_t* half = chunk + offset;
            switch (m) {
            case 1:
                count_half<1>(active, n_active, half, width, full, lanes, n_planes, counter);
                break;
            case 2:
                count_half<2>(active, n_active, half, width, full, lanes, n_planes, counter);
                break;
            case 3:
                count_half<3>(active, n_active, half, width, full, lanes, n_planes, counter);
                break;
            case 4:
                count_half<4>(active, n_active, half, width, full, lanes, n_planes, counter);
                break;
            case 5:
                count_half<5>(active, n_active, half, width, full, lanes, n_planes, counter);
                break;
            case 6:
                count_half<6>(active, n_active, half, width, full, lanes, n_planes, counter);
                break;
            case 7:
                count_half<7>(active, n_active, half, width, full, lanes, n_planes, counter);
                break;
            default:
                count_half<8>(active, n_active, half, width, full, lanes, n_planes, counter);
                break;
            }
            for (std::size_t j = 0; j < n_planes; ++j) {
                _mm256_maskstore_epi64(
                    reinterpret_cast<long long*>(counters + j * words + first + offset),
                    lanes, counter[j]);
            }
        }
    }
}

/// The int32 finisher: eight dimensions per step. Horner over the counter
/// planes from the most significant: double the lanes, then add each
/// plane's byte expanded to eight 0/1 lanes (broadcast, and with the lane
/// bit, compare — the -1 lanes subtract as +1). The centred lanes are
/// added into `out`.
void plane_count_center(const std::uint64_t* counters, std::size_t n_planes,
                        std::size_t words, std::size_t n, std::int32_t tau2,
                        std::int32_t* out) {
    const __m256i lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i tau = _mm256_set1_epi32(tau2);
    for (std::size_t d = 0; d < n; d += 8) {
        const std::uint64_t* word = counters + d / 64;
        const unsigned shift = static_cast<unsigned>(d % 64);
        __m256i count = _mm256_setzero_si256();
        for (std::size_t j = n_planes; j-- > 0;) {
            const auto byte = static_cast<int>((word[j * words] >> shift) & 0xFFu);
            const __m256i bits = _mm256_and_si256(_mm256_set1_epi32(byte), lane_bit);
            count = _mm256_sub_epi32(_mm256_add_epi32(count, count),
                                     _mm256_cmpeq_epi32(bits, lane_bit));
        }
        const __m256i centred = _mm256_sub_epi32(_mm256_add_epi32(count, count), tau);
        if (n - d >= 8) {
            auto* slot = reinterpret_cast<__m256i*>(out + d);
            _mm256_storeu_si256(slot, _mm256_add_epi32(_mm256_loadu_si256(slot), centred));
        } else {
            alignas(32) std::int32_t lanes[8];
            _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), centred);
            for (std::size_t i = 0; d + i < n; ++i) out[d + i] += lanes[i];
        }
    }
}

// --- rematerializing encode kernel ----------------------------------------

/// Gray-code 16-blocks as two 8-lane vectors: the broadcast base state is
/// XORed with the per-pixel delta table (gray(16m + k) = gray(16m) ^
/// gray(k)), the unsigned compare against the pixel's bound is
/// min_epu32 + cmpeq, and the -1/0 lane mask subtracts as +1/0 into the
/// int32 out tile. Unaligned head/tail run the serial Gray-code recurrence
/// — pure integer accumulation, bit-identical to the scalar reference.
void geq_rematerialize_accumulate(const std::uint32_t* directions,
                                  std::size_t dir_words, const std::uint32_t* shifts,
                                  const std::uint32_t* bounds, std::size_t npix,
                                  std::uint64_t d_begin, std::size_t dim_count,
                                  std::int32_t* out) {
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
        alignas(32) std::uint32_t delta[16];
        delta[0] = 0;
        for (unsigned k = 1; k < 16; ++k) {
            delta[k] = delta[k - 1] ^ v[std::countr_zero(k)];
        }
        const __m256i dlo = _mm256_load_si256(reinterpret_cast<const __m256i*>(delta));
        const __m256i dhi =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(delta + 8));
        const __m256i vb = _mm256_set1_epi32(static_cast<int>(bound));
        for (; index + 16 <= end; index += 16, j += 16) {
            const __m256i base = _mm256_set1_epi32(static_cast<int>(state));
            const __m256i x0 = _mm256_xor_si256(base, dlo);
            const __m256i x1 = _mm256_xor_si256(base, dhi);
            const __m256i le0 = _mm256_cmpeq_epi32(_mm256_min_epu32(x0, vb), x0);
            const __m256i le1 = _mm256_cmpeq_epi32(_mm256_min_epu32(x1, vb), x1);
            __m256i* o0 = reinterpret_cast<__m256i*>(out + j);
            __m256i* o1 = reinterpret_cast<__m256i*>(out + j + 8);
            _mm256_storeu_si256(o0, _mm256_sub_epi32(_mm256_loadu_si256(o0), le0));
            _mm256_storeu_si256(o1, _mm256_sub_epi32(_mm256_loadu_si256(o1), le1));
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

/// movemask over eight int32 lanes yields eight sign bits per load, so one
/// output word is eight loads + shifts.
void sign_binarize(const std::int32_t* v, std::size_t n, std::uint64_t* words) {
    std::size_t d = 0;
    std::size_t w = 0;
    for (; d + 64 <= n; d += 64, ++w) {
        std::uint64_t bits = 0;
        for (std::size_t i = 0; i < 8; ++i) {
            const __m256i x = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(v + d + 8 * i));
            const auto mask = static_cast<std::uint32_t>(
                _mm256_movemask_ps(_mm256_castsi256_ps(x)));
            bits |= static_cast<std::uint64_t>(mask) << (8 * i);
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

// --- query-block Hamming kernels ------------------------------------------

/// One nibble-LUT popcount step: per-64-lane bit counts of a 256-bit word
/// (per-byte counts <= 16; sad_epu8 folds them into four u64 lanes).
__m256i popcount256(__m256i x, __m256i lut, __m256i low_nibble) {
    const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(x, low_nibble));
    const __m256i hi = _mm256_shuffle_epi8(
        lut, _mm256_and_si256(_mm256_srli_epi32(x, 4), low_nibble));
    return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

/// popcount(a XOR b), 4 words (256 bits) per step — the per-pair reduction
/// of the block kernels' ragged query and row edges. Bit-exact with the
/// portable word loop.
std::uint64_t xor_popcount_words(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n) {
    const __m256i low_nibble = _mm256_set1_epi8(0x0F);
    const __m256i lut =
        _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2,
                         1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
        acc = _mm256_add_epi64(acc, popcount256(x, lut, low_nibble));
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    std::uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i) total += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
    return total;
}

/// Register-blocked tile: XOR-popcount distances over words [from_word,
/// to_word) for a full 4-query x 2-row tile. Eight ymm accumulators live
/// across one pass over the two rows, 4 words (256 bits) per step; word
/// tails finish with scalar popcounts. Each row word is loaded once per
/// query tile — the cache-blocking the block kernels exist for.
void block_tile_4x2(const std::uint64_t* const q[4], const std::uint64_t* r0,
                    const std::uint64_t* r1, std::size_t from_word,
                    std::size_t to_word, std::uint64_t d[4][2]) {
    const __m256i low_nibble = _mm256_set1_epi8(0x0F);
    const __m256i lut =
        _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2,
                         1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    __m256i acc[4][2];
    for (int qi = 0; qi < 4; ++qi) {
        acc[qi][0] = _mm256_setzero_si256();
        acc[qi][1] = _mm256_setzero_si256();
    }
    std::size_t w = from_word;
    for (; w + 4 <= to_word; w += 4) {
        const __m256i r0v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r0 + w));
        const __m256i r1v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r1 + w));
        for (int qi = 0; qi < 4; ++qi) {
            const __m256i qv =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q[qi] + w));
            acc[qi][0] = _mm256_add_epi64(
                acc[qi][0], popcount256(_mm256_xor_si256(qv, r0v), lut, low_nibble));
            acc[qi][1] = _mm256_add_epi64(
                acc[qi][1], popcount256(_mm256_xor_si256(qv, r1v), lut, low_nibble));
        }
    }
    for (int qi = 0; qi < 4; ++qi) {
        for (int ri = 0; ri < 2; ++ri) {
            alignas(32) std::uint64_t lanes[4];
            _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[qi][ri]);
            d[qi][ri] = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        }
        for (std::size_t ww = w; ww < to_word; ++ww) {
            d[qi][0] += static_cast<std::uint64_t>(std::popcount(q[qi][ww] ^ r0[ww]));
            d[qi][1] += static_cast<std::uint64_t>(std::popcount(q[qi][ww] ^ r1[ww]));
        }
    }
}

void hamming_block_extend(const std::uint64_t* queries, std::size_t query_words,
                          std::size_t n_queries, const std::uint64_t* rows,
                          std::size_t row_words, std::size_t from_word,
                          std::size_t to_word, std::size_t n_rows,
                          std::uint64_t* distances) {
    const std::size_t span = to_word - from_word;
    std::size_t q = 0;
    for (; q + 4 <= n_queries; q += 4) {
        const std::uint64_t* qp[4] = {
            queries + (q + 0) * query_words, queries + (q + 1) * query_words,
            queries + (q + 2) * query_words, queries + (q + 3) * query_words};
        std::size_t row = 0;
        for (; row + 2 <= n_rows; row += 2) {
            std::uint64_t d[4][2];
            block_tile_4x2(qp, rows + row * row_words, rows + (row + 1) * row_words,
                           from_word, to_word, d);
            for (std::size_t qi = 0; qi < 4; ++qi) {
                distances[(q + qi) * n_rows + row] += d[qi][0];
                distances[(q + qi) * n_rows + row + 1] += d[qi][1];
            }
        }
        for (; row < n_rows; ++row) {
            const std::uint64_t* r0 = rows + row * row_words + from_word;
            for (std::size_t qi = 0; qi < 4; ++qi) {
                distances[(q + qi) * n_rows + row] +=
                    xor_popcount_words(qp[qi] + from_word, r0, span);
            }
        }
    }
    for (; q < n_queries; ++q) {
        const std::uint64_t* query = queries + q * query_words;
        for (std::size_t row = 0; row < n_rows; ++row) {
            distances[q * n_rows + row] += xor_popcount_words(
                query + from_word, rows + row * row_words + from_word, span);
        }
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

void hamming_block_argmin2_prefix(const std::uint64_t* queries,
                                  std::size_t query_words, std::size_t n_queries,
                                  const std::uint64_t* rows, std::size_t row_words,
                                  std::size_t prefix_words, std::size_t n_rows,
                                  argmin2_result* results) {
    for (std::size_t q = 0; q < n_queries; ++q) {
        results[q] = argmin2_result{0, ~std::uint64_t{0}, ~std::uint64_t{0}};
    }
    std::size_t q = 0;
    for (; q + 4 <= n_queries; q += 4) {
        const std::uint64_t* qp[4] = {
            queries + (q + 0) * query_words, queries + (q + 1) * query_words,
            queries + (q + 2) * query_words, queries + (q + 3) * query_words};
        std::size_t row = 0;
        for (; row + 2 <= n_rows; row += 2) {
            std::uint64_t d[4][2];
            block_tile_4x2(qp, rows + row * row_words, rows + (row + 1) * row_words,
                           0, prefix_words, d);
            for (std::size_t qi = 0; qi < 4; ++qi) {
                argmin2_update(results[q + qi], row, d[qi][0]);
                argmin2_update(results[q + qi], row + 1, d[qi][1]);
            }
        }
        for (; row < n_rows; ++row) {
            const std::uint64_t* r0 = rows + row * row_words;
            for (std::size_t qi = 0; qi < 4; ++qi) {
                argmin2_update(results[q + qi], row,
                               xor_popcount_words(qp[qi], r0, prefix_words));
            }
        }
    }
    for (; q < n_queries; ++q) {
        const std::uint64_t* query = queries + q * query_words;
        for (std::size_t row = 0; row < n_rows; ++row) {
            argmin2_update(results[q], row,
                           xor_popcount_words(query, rows + row * row_words,
                                              prefix_words));
        }
    }
}

// --- Sobol bit-plane bank build -------------------------------------------

/// ld::quantize_fraction's rule on 8 u32 lanes: (f * scale + 2^31) >> 32,
/// two 32 x 32 -> 64 multiplies (even lanes, then the odd lanes shifted
/// down), each result the high dword of its product.
[[gnu::always_inline]] inline __m256i quantize8(__m256i f, __m256i scale, __m256i half) {
    const __m256i even = _mm256_add_epi64(_mm256_mul_epu32(f, scale), half);
    const __m256i odd =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(f, 32), scale), half);
    return _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA);
}

/// One pixel's build for M planes, the AVX-512 body's order on 256-bit
/// vectors. Half a dimension word is one aligned Gray block of 32,
/// x(32h + j) = x(32h) ^ x(j): the broadcast state XORs four 8-lane delta
/// vectors, laid out so that the two packs' 128-bit interleave puts
/// dimension b in byte b. Minus one gives T, and plane k's 32 bits are the
/// byte sign bits once bit k is shifted to the top. A chunk's plane rows
/// are then read back four words at a time and split into the 2^M
/// minterms T = t, whose popcounts are the level counts; minterm 2^M - 1
/// is the zero mask.
template <std::size_t M>
void sobol_plane_row_m(const std::uint32_t* v, std::uint32_t shift, unsigned levels,
                       std::size_t dim, std::size_t npix, std::size_t pixel,
                       std::uint64_t* planes, std::uint32_t* level_counts,
                       std::uint64_t* zero_words) {
    constexpr std::size_t terms = std::size_t{1} << M;
    const std::size_t words = (dim + 63) / 64;
    alignas(32) std::uint32_t gray[32];
    gray[0] = 0;
    for (unsigned j = 1; j < 32; ++j) gray[j] = gray[j - 1] ^ v[std::countr_zero(j)];
    __m256i delta[4];
    for (unsigned g = 0; g < 4; ++g) {
        alignas(32) std::uint32_t lanes[8];
        for (unsigned i = 0; i < 8; ++i) lanes[i] = gray[16 * (i / 4) + 4 * g + i % 4];
        delta[g] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
    }
    const std::uint32_t second_half = v[4] ^ v[5]; // x(32)
    const __m256i scale = _mm256_set1_epi64x(static_cast<long long>(levels - 1));
    const __m256i half = _mm256_set1_epi64x(1LL << 31);
    const __m256i one = _mm256_set1_epi8(1);
    const __m256i byte_index = _mm256_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                                14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
                                                25, 26, 27, 28, 29, 30, 31);
    const __m256i quad_index = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i low_nibble = _mm256_set1_epi8(0x0F);
    const __m256i lut =
        _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2,
                         1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    __m256i counts[terms];
    for (__m256i& c : counts) c = _mm256_setzero_si256();
    std::uint32_t state = shift; // x(64w) ^ shift
    for (std::size_t first = 0; first < words; first += chunk_words) {
        const std::size_t width = words - first < chunk_words ? words - first : chunk_words;
        std::uint64_t* rows = planes + first * npix * M + pixel * M * width;
        alignas(32) std::uint64_t valid[chunk_words] = {};
        for (std::size_t i = 0; i < width; ++i) {
            const std::size_t w = first + i;
            std::uint64_t bits[M] = {};
            for (std::size_t h = 0; h < 2; ++h) {
                const __m256i base =
                    _mm256_set1_epi32(static_cast<int>(h == 0 ? state : state ^ second_half));
                const __m256i low = _mm256_packus_epi32(
                    quantize8(_mm256_xor_si256(base, delta[0]), scale, half),
                    quantize8(_mm256_xor_si256(base, delta[1]), scale, half));
                const __m256i high = _mm256_packus_epi32(
                    quantize8(_mm256_xor_si256(base, delta[2]), scale, half),
                    quantize8(_mm256_xor_si256(base, delta[3]), scale, half));
                __m256i t = _mm256_sub_epi8(_mm256_packus_epi16(low, high), one);
                const std::size_t left = dim - 64 * w;
                const std::size_t n = left > 32 * h ? left - 32 * h : 0; // valid bytes
                if (n < 32) {
                    // T past dim is all-ones: bytes b >= n, i.e. b > n - 1.
                    t = _mm256_or_si256(
                        t, _mm256_cmpgt_epi8(byte_index,
                                             _mm256_set1_epi8(static_cast<char>(n - 1))));
                }
                for (std::size_t k = 0; k < M; ++k) {
                    const auto sign = static_cast<std::uint32_t>(_mm256_movemask_epi8(
                        _mm256_slli_epi16(t, static_cast<int>(7 - k))));
                    bits[k] |= static_cast<std::uint64_t>(sign) << (32 * h);
                }
            }
            for (std::size_t k = 0; k < M; ++k) rows[k * width + i] = bits[k];
            const std::size_t n = dim - 64 * w;
            valid[i] = n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
            // Block step w -> w + 1: gray(64w) ^ gray(64w + 64) has exactly
            // bits {5, countr_zero(w + 1) + 6} set.
            if (w + 1 < words) state ^= v[5] ^ v[std::countr_zero(w + 1) + 6];
        }
        for (std::size_t offset = 0; offset < width; offset += 4) {
            const __m256i lanes = _mm256_cmpgt_epi64(
                _mm256_set1_epi64x(static_cast<long long>(width - offset)), quad_index);
            __m256i node[terms];
            node[0] = _mm256_load_si256(reinterpret_cast<const __m256i*>(valid + offset));
            for (std::size_t k = M; k-- > 0;) {
                const __m256i plane = _mm256_maskload_epi64(
                    reinterpret_cast<const long long*>(rows + k * width + offset), lanes);
                for (std::size_t j = terms >> (k + 1); j-- > 0;) {
                    node[2 * j + 1] = _mm256_and_si256(node[j], plane);
                    node[2 * j] = _mm256_andnot_si256(plane, node[j]);
                }
            }
            _mm256_maskstore_epi64(reinterpret_cast<long long*>(zero_words + first + offset),
                                   lanes, node[terms - 1]);
            for (std::size_t j = 0; j < terms; ++j) {
                counts[j] = _mm256_add_epi64(counts[j], popcount256(node[j], lut, low_nibble));
            }
        }
    }
    for (unsigned q = 0; q < levels; ++q) {
        alignas(32) std::uint64_t lanes[4];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                           counts[(q - 1) & (terms - 1)]);
        level_counts[q] = static_cast<std::uint32_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
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

// --- blocked int32 dot kernels --------------------------------------------
//
// Identical fixed 4-lane algorithm as the portable bodies (simd.hpp): the
// lane split pins the FP addition order, so the -mavx2 compilation may
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
    "avx2",
    supported,
    sobol_plane_row,
    geq_plane_count,
    plane_count_center,
    geq_rematerialize_accumulate,
    sign_binarize,
    hamming_block_extend,
    hamming_block_argmin2_prefix,
    sum_squares_i32,
    dot_i32,
};

} // namespace

const kernel_table& avx2_table() noexcept { return table; }

} // namespace uhd::kernels::detail

#else
#error "kernels_avx2.cpp requires -mavx2 (set per-file by src/CMakeLists.txt)"
#endif // __AVX2__

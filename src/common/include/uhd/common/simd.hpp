// Portable kernel bodies and pinned scalar oracles for the uhd::kernels
// backend registry (uhd/common/kernels.hpp — the runtime dispatch layer
// every hot path routes through).
//
// This header carries only code that is legal on any build target:
//
//  1. the pinned byte-at-a-time *references* (UHD_SCALAR_REFERENCE): the
//     oracles the word-parallel backends are tested and benchmarked
//     against, kept genuinely scalar even under -O3 auto-vectorization;
//  2. the portable scalar helpers (vector-width tails, tile flushes);
//  3. the SWAR/u64 kernels — 64-bit word-parallel implementations with no
//     ISA requirement beyond a 64-bit integer unit;
//  4. word-at-a-time popcount reductions and the packed-row scan loops
//     built on them.
//
// ISA-specific kernel bodies live in per-backend translation units
// (src/common/kernels_scalar.cpp, kernels_swar.cpp, kernels_avx2.cpp); the
// AVX2 unit is self-contained and compiled with a per-file -mavx2, so this
// header must never grow an #ifdef __AVX2__ block again — that would
// reintroduce the compile-time dispatch (and the ODR hazard) the registry
// exists to remove.
//
// Call sites use uhd::kernels; including this header directly is for
// backend TUs, tests, and benchmarks that need a *specific* implementation
// rather than the dispatched one, and for the undispatched portable
// helpers (masked_sum_i32, the packed-sign finisher plane_count_sign, the
// encode_scalar oracle's geq_accumulate_reference).
#ifndef UHD_COMMON_SIMD_HPP
#define UHD_COMMON_SIMD_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "uhd/common/kernels.hpp"

// Marker for reference kernels that must stay byte-at-a-time scalar code:
// they are the oracle the word-parallel kernels are measured against, so
// letting the compiler auto-vectorize them would silently turn the
// baseline into another SIMD implementation. The trainer's threshold
// lookups (hdc/trainer.cpp) use it too, for speed: vectorized without a
// gather instruction, their table lookups ran 1.7-3x slower.
#if defined(__clang__)
#define UHD_SCALAR_REFERENCE __attribute__((noinline))
#define UHD_NOVECTOR_LOOP _Pragma("clang loop vectorize(disable) interleave(disable)")
#elif defined(__GNUC__)
#define UHD_SCALAR_REFERENCE \
    __attribute__((noinline, optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#define UHD_NOVECTOR_LOOP
#else
#define UHD_SCALAR_REFERENCE
#define UHD_NOVECTOR_LOOP
#endif

namespace uhd::simd {

using kernels::argmin2_result;
using kernels::argmin2_u64;
using kernels::sign_words;

/// True byte-at-a-time oracle: geq16[d] += (q >= thresholds[d]) for d in
/// [0, dim), pinned to scalar code (see UHD_SCALAR_REFERENCE) so the
/// encode_scalar oracle stays a genuinely scalar baseline.
UHD_SCALAR_REFERENCE inline void geq_accumulate_reference(
    std::uint8_t q, const std::uint8_t* thresholds, std::size_t dim,
    std::uint16_t* geq16) noexcept {
    UHD_NOVECTOR_LOOP
    for (std::size_t d = 0; d < dim; ++d) {
        geq16[d] = static_cast<std::uint16_t>(geq16[d] + (q >= thresholds[d]));
    }
}

/// Flush a u16 tile into the int32 accumulator: out[d] += geq16[d].
inline void add_u16_to_i32(const std::uint16_t* geq16, std::size_t dim,
                           std::int32_t* out) noexcept {
    for (std::size_t d = 0; d < dim; ++d) out[d] += geq16[d];
}

// --- Sobol bit-plane bank build -------------------------------------------
//
// One pixel's stored-bank build (kernels::kernel_table::sobol_plane_row):
// generate its Sobol thresholds, slice them into its bank planes as
// T = (S - 1) mod 2^m, count them per level and mark the zero ones. The
// kernels sit below the lowdisc module, so the Gray-code recurrence and
// ld::quantize_fraction's rule are restated here.

/// ld::quantize_fraction: fraction * (levels - 1) / 2^32, rounded half up.
[[nodiscard]] constexpr std::uint8_t quantize_fraction(std::uint32_t fraction,
                                                       unsigned levels) noexcept {
    return static_cast<std::uint8_t>(
        (static_cast<std::uint64_t>(fraction) * (levels - 1) + (std::uint64_t{1} << 31)) >>
        32);
}

/// Plane word k of 64 stored values packed eight per u64 (byte i of
/// eight[g] = value 8g + i): masking bit k of every byte and multiplying by
/// 0x0102040810204080 gathers those eight bits, in order, into the top byte
/// (every partial product lands on its own bit, so nothing carries), so a
/// plane word is eight multiplies instead of a per-bit loop.
[[nodiscard]] inline std::uint64_t gather_plane_bits(const std::uint64_t eight[8],
                                                     std::size_t k) noexcept {
    constexpr std::uint64_t low_bits = 0x0101010101010101ULL;
    constexpr std::uint64_t gather = 0x0102040810204080ULL;
    std::uint64_t word = 0;
    for (std::size_t g = 0; g < 8; ++g) {
        word |= ((((eight[g] >> k) & low_bits) * gather) >> 56) << (8 * g);
    }
    return word;
}

/// The per-value build of one pixel from a row of `dim` thresholds (one
/// byte each, < levels): count each value into level_counts, mark the
/// zero ones in zero_words, and slice the row into the pixel's m plane
/// rows of an npix-pixel bank, relabelled to T = (S - 1) mod 2^m — the
/// writes of kernels::kernel_table::sobol_plane_row. Values past dim
/// slice as S = 0, whose relabel is all-ones.
inline void slice_threshold_row(const std::uint8_t* row, unsigned levels, std::size_t dim,
                                std::size_t npix, std::size_t pixel, std::uint64_t* planes,
                                std::uint32_t* level_counts,
                                std::uint64_t* zero_words) noexcept {
    const std::size_t words = sign_words(dim);
    const auto m = static_cast<std::size_t>(std::bit_width(levels - 1));
    const unsigned value_mask = (1u << m) - 1;
    std::fill_n(level_counts, levels, std::uint32_t{0});
    for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t eight[8] = {};
        std::uint64_t zero = 0;
        for (std::size_t b = 0; b < 64; ++b) {
            const std::size_t d = 64 * w + b;
            unsigned t = value_mask;
            if (d < dim) {
                ++level_counts[row[d]];
                zero |= static_cast<std::uint64_t>(row[d] == 0) << b;
                t = (row[d] - 1u) & value_mask;
            }
            eight[b / 8] |= static_cast<std::uint64_t>(t) << (8 * (b % 8));
        }
        zero_words[w] = zero;
        for (std::size_t k = 0; k < m; ++k) {
            planes[kernels::plane_word_offset(npix, m, words, pixel, k, w)] =
                gather_plane_bits(eight, k);
        }
    }
}

/// Pinned scalar oracle: the per-value build — one Gray-code step and one
/// quantize per threshold into a row, then slice_threshold_row's count,
/// zero mark and byte transpose per value.
UHD_SCALAR_REFERENCE inline void sobol_plane_row_reference(
    const std::uint32_t* directions, std::uint32_t shift, unsigned levels,
    std::size_t dim, std::size_t npix, std::size_t pixel, std::uint64_t* planes,
    std::uint32_t* level_counts, std::uint64_t* zero_words) {
    std::vector<std::uint8_t> row(dim);
    std::uint32_t state = 0;
    UHD_NOVECTOR_LOOP
    for (std::size_t d = 0; d < dim; ++d) {
        row[d] = quantize_fraction(state ^ shift, levels);
        state ^= directions[std::countr_zero(d + 1)];
    }
    slice_threshold_row(row.data(), levels, dim, npix, pixel, planes, level_counts,
                        zero_words);
}

/// Gray-code delta table over v[0..3]: delta[k] = x(k), the XOR of v[i]
/// over the set bits of gray(k), so x(16a + k) = x(16a) ^ delta[k].
inline void remat_delta_table(const std::uint32_t* v,
                              std::uint32_t delta[16]) noexcept {
    delta[0] = 0;
    for (unsigned k = 1; k < 16; ++k) {
        delta[k] = delta[k - 1] ^ v[std::countr_zero(k)];
    }
}

/// SWAR body: the reference's passes fused per dimension word, with no
/// row and no byte array. Four 16-value Gray blocks (one state XOR the
/// delta table each) are quantized straight into T, packed eight per u64
/// in registers and counted into four interleaved histograms (so
/// neighbouring values never wait on one counter); the plane words are
/// gathered from the packed bytes, and the zero mask is every plane's AND
/// (T all-ones is S = 0).
inline void sobol_plane_row_swar(const std::uint32_t* directions, std::uint32_t shift,
                                 unsigned levels, std::size_t dim, std::size_t npix,
                                 std::size_t pixel, std::uint64_t* planes,
                                 std::uint32_t* level_counts,
                                 std::uint64_t* zero_words) noexcept {
    const std::size_t words = sign_words(dim);
    const auto m = static_cast<std::size_t>(std::bit_width(levels - 1));
    const std::uint64_t value_mask = (std::uint64_t{1} << m) - 1;
    const std::uint64_t scale = levels - 1;
    // quantize_fraction's rounding constant less 2^32: the product's high
    // word is then S - 1, and S = 0 wraps to all-ones.
    const std::uint64_t round = (std::uint64_t{1} << 31) - (std::uint64_t{1} << 32);
    std::uint32_t delta[16];
    remat_delta_table(directions, delta);
    std::uint32_t histogram[4][256] = {};
    std::uint32_t block = shift; // x(16a) ^ shift for the next block a
    for (std::size_t w = 0; w < words; ++w) {
        const std::size_t n = std::min<std::size_t>(64, dim - 64 * w);
        std::uint64_t eight[8];
        for (std::size_t b = 0; b < 4; ++b) {
            for (std::size_t h = 0; h < 2; ++h) {
                std::uint64_t packed = 0;
                for (unsigned i = 0; i < 8; ++i) {
                    const std::uint64_t t =
                        ((static_cast<std::uint64_t>(block ^ delta[8 * h + i]) * scale +
                          round) >> 32) & value_mask;
                    packed |= t << (8 * i);
                    histogram[i % 4][t] += static_cast<std::uint32_t>(16 * b + 8 * h + i < n);
                }
                eight[2 * b + h] = packed;
            }
            // Block step a -> a + 1: gray(16a) ^ gray(16a + 16) has exactly
            // bits {3, countr_zero(a + 1) + 4} set.
            block ^= directions[3] ^ directions[std::countr_zero(4 * w + b + 1) + 4];
        }
        const std::uint64_t valid =
            n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
        std::uint64_t zero = valid;
        for (std::size_t k = 0; k < m; ++k) {
            const std::uint64_t plane = gather_plane_bits(eight, k) | ~valid;
            zero &= plane;
            planes[kernels::plane_word_offset(npix, m, words, pixel, k, w)] = plane;
        }
        zero_words[w] = zero;
    }
    for (unsigned q = 0; q < levels; ++q) {
        const std::uint64_t t = (q - 1u) & value_mask;
        level_counts[q] =
            histogram[0][t] + histogram[1][t] + histogram[2][t] + histogram[3][t];
    }
}

// --- bit-plane threshold count kernels ------------------------------------
//
// count[d] = base[d] + #{listed p : level_p >= T_p[d]} over a bit-plane bank
// (layout: kernels::plane_word_offset), written as count_planes(npix)
// bit-sliced counter planes; see kernels::kernel_table::geq_plane_count for
// the contract and the encoder's level-0 identity. The comparator is
// bit-sliced as well: walking pixel p's planes from the least significant,
// ge = maj(~T_k, ge, L_k), where L_k is all-ones when bit k of the level is
// set — the highest differing bit decides and equal bits keep the lower
// bits' verdict, starting from "equal", i.e. level >= T. That is one
// majority per plane for 64 dimensions. The word-parallel bodies seed their
// counters from the base planes and count the listed pixels' comparator
// outputs with a Harley-Seal carry-save tree: 16 pixels fold into the
// ones/twos/fours/eights planes with 15 carry-save adders, and the one
// sixteens plane they emit ripples into the counter planes above them. The
// counts are exact integers, so every backend writes the same counter
// words.

/// spread_bits[x] holds bit i of the byte x in byte lane i (0 or 1).
struct byte_spread_table {
    std::uint64_t lanes[256];
};

[[nodiscard]] constexpr byte_spread_table make_byte_spread_table() noexcept {
    byte_spread_table table{};
    for (unsigned x = 0; x < 256; ++x) {
        for (unsigned i = 0; i < 8; ++i) {
            table.lanes[x] |= static_cast<std::uint64_t>((x >> i) & 1u) << (8 * i);
        }
    }
    return table;
}

inline constexpr byte_spread_table spread_bits = make_byte_spread_table();

/// Pixel p's 64 thresholds of dimension word w, one byte each, decoded from
/// its m plane words: each plane byte spreads its eight bits over eight
/// byte lanes through spread_bits, shifted to the plane's bit.
inline void decode_plane_word(const std::uint64_t* planes, std::size_t npix,
                              std::size_t m, std::size_t words, std::size_t p,
                              std::size_t w, std::uint8_t row[64]) noexcept {
    std::uint64_t eight[8] = {};
    for (std::size_t k = 0; k < m; ++k) {
        const std::uint64_t plane =
            planes[kernels::plane_word_offset(npix, m, words, p, k, w)];
        for (unsigned g = 0; g < 8; ++g) {
            eight[g] |= spread_bits.lanes[(plane >> (8 * g)) & 0xFFu] << k;
        }
    }
    if constexpr (std::endian::native == std::endian::little) {
        __builtin_memcpy(row, eight, 64); // byte lane i of eight[g] is row[8g + i]
    } else {
        for (unsigned b = 0; b < 64; ++b) {
            row[b] = static_cast<std::uint8_t>(eight[b / 8] >> (8 * (b % 8)));
        }
    }
}

/// Pinned scalar oracle: decode the base counts, then listed pixel by listed
/// pixel, decode the stored row and compare each (pixel, dimension) pair
/// byte at a time through geq_accumulate_reference into u16 lanes (flushed
/// before they can overflow), then slice the counts into counter planes.
/// The baseline the carry-save bodies are tested against.
UHD_SCALAR_REFERENCE inline void geq_plane_count_reference(
    const kernels::active_pixel* active, std::size_t n_active, std::size_t npix,
    const std::uint64_t* planes, std::size_t m, std::size_t words,
    const std::uint64_t* base, std::uint64_t* counters) {
    const std::size_t dims = words * 64;
    const std::size_t n_planes = kernels::count_planes(npix);
    std::vector<std::uint8_t> row(dims);
    std::vector<std::uint16_t> tile(dims, 0);
    std::vector<std::int32_t> count(dims, 0);
    for (std::size_t d = 0; d < dims; ++d) {
        for (std::size_t j = 0; j < n_planes; ++j) {
            count[d] |= static_cast<std::int32_t>((base[j * words + d / 64] >> (d % 64)) & 1u)
                        << j;
        }
    }
    std::size_t pixels_in_tile = 0;
    for (std::size_t i = 0; i < n_active; ++i) {
        for (std::size_t w = 0; w < words; ++w) {
            decode_plane_word(planes, npix, m, words, active[i].pixel, w,
                              row.data() + w * 64);
        }
        geq_accumulate_reference(static_cast<std::uint8_t>(active[i].level), row.data(),
                                 dims, tile.data());
        if (++pixels_in_tile == 65535) {
            add_u16_to_i32(tile.data(), dims, count.data());
            std::fill(tile.begin(), tile.end(), std::uint16_t{0});
            pixels_in_tile = 0;
        }
    }
    add_u16_to_i32(tile.data(), dims, count.data());
    for (std::size_t j = 0; j < n_planes; ++j) {
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t bits = 0;
            for (unsigned b = 0; b < 64; ++b) {
                bits |= static_cast<std::uint64_t>((count[w * 64 + b] >> j) & 1) << b;
            }
            counters[j * words + w] = bits;
        }
    }
}

/// Carry-save adder over 64 bit lanes: a + b + c = low + 2 * high.
inline void carry_save_add(std::uint64_t& high, std::uint64_t& low, std::uint64_t a,
                           std::uint64_t b, std::uint64_t c) noexcept {
    const std::uint64_t u = a ^ b;
    high = (a & b) | (u & c);
    low = u ^ c;
}

/// Add a one-bit-per-lane value into bit-sliced counter planes from plane
/// `from` up (counter planes never overflow: the count fits by contract).
inline void ripple_add(std::uint64_t* counter, std::size_t from, std::size_t n_planes,
                       std::uint64_t carry) noexcept {
    for (std::size_t j = from; j < n_planes && carry != 0; ++j) {
        const std::uint64_t next = counter[j] & carry;
        counter[j] ^= carry;
        carry = next;
    }
}

/// SWAR body: the carry-save tree on u64 words, one dimension word of a
/// bank chunk at a time.
inline void geq_plane_count_swar(const kernels::active_pixel* active,
                                 std::size_t n_active, std::size_t npix,
                                 const std::uint64_t* planes, std::size_t m,
                                 std::size_t words, const std::uint64_t* base,
                                 std::uint64_t* counters) noexcept {
    const std::size_t n_planes = kernels::count_planes(npix);
    for (std::size_t first = 0; first < words; first += kernels::plane_chunk_words) {
        const std::size_t width = std::min(kernels::plane_chunk_words, words - first);
        const std::uint64_t* chunk = planes + first * npix * m;
        for (std::size_t lane = 0; lane < width; ++lane) {
            // Listed pixel i's comparator output for this word:
            // level >= T_p[d].
            const auto ge = [&](std::size_t i) {
                const std::uint64_t* s = chunk + active[i].pixel * m * width + lane;
                const std::uint32_t level = active[i].level;
                std::uint64_t g = ~std::uint64_t{0};
                for (std::size_t k = 0; k < m; ++k) {
                    const std::uint64_t lk = 0 - static_cast<std::uint64_t>((level >> k) & 1u);
                    const std::uint64_t not_s = ~s[k * width];
                    g = (not_s & (g | lk)) | (g & lk);
                }
                return g;
            };
            std::uint64_t counter[64];
            for (std::size_t j = 0; j < n_planes; ++j) {
                counter[j] = base[j * words + first + lane];
            }
            std::size_t i = 0;
            if (n_planes > 4) {
                std::uint64_t ones = counter[0], twos = counter[1];
                std::uint64_t fours = counter[2], eights = counter[3];
                std::uint64_t twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
                for (; i + 16 <= n_active; i += 16) {
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
            for (std::size_t j = 0; j < n_planes; ++j) {
                counters[j * words + first + lane] = counter[j];
            }
        }
    }
}

/// Pinned scalar oracle for the int32 finisher (out[d] += 2 * count[d] -
/// tau2): one counter decode per dimension.
UHD_SCALAR_REFERENCE inline void plane_count_center_reference(
    const std::uint64_t* counters, std::size_t n_planes, std::size_t words,
    std::size_t n, std::int32_t tau2, std::int32_t* out) noexcept {
    UHD_NOVECTOR_LOOP
    for (std::size_t d = 0; d < n; ++d) {
        std::int64_t count = 0;
        for (std::size_t j = 0; j < n_planes; ++j) {
            count |= static_cast<std::int64_t>((counters[j * words + d / 64] >> (d % 64)) & 1u)
                     << j;
        }
        out[d] = static_cast<std::int32_t>(out[d] + 2 * count - tau2);
    }
}

/// Portable int32 finisher: one dimension word at a time, each counter
/// plane added into the word's 64 lanes as a whole, the lanes then added
/// into `out`.
inline void plane_count_center_portable(const std::uint64_t* counters,
                                        std::size_t n_planes, std::size_t words,
                                        std::size_t n, std::int32_t tau2,
                                        std::int32_t* out) noexcept {
    for (std::size_t w = 0; w * 64 < n; ++w) {
        std::int32_t lanes[64];
        for (auto& v : lanes) v = -tau2;
        for (std::size_t j = 0; j < n_planes; ++j) {
            const std::uint64_t plane = counters[j * words + w];
            const std::int32_t weight = std::int32_t{2} << j;
            for (unsigned b = 0; b < 64; ++b) {
                lanes[b] += static_cast<std::int32_t>((plane >> b) & 1u) * weight;
            }
        }
        const std::size_t count = std::min<std::size_t>(64, n - w * 64);
        for (std::size_t b = 0; b < count; ++b) out[w * 64 + b] += lanes[b];
    }
}

/// The packed-sign finisher of geq_plane_count: bit d of out_words is set
/// exactly when 2 * count[d] - tau2 < 0, i.e. count[d] < ceil(tau2 / 2) —
/// the sign_binarize convention (bit 1 = -1) applied to the centred
/// encode without forming it. A bit-sliced compare against that constant,
/// least significant plane first; writes sign_words(n) words with the tail
/// bits beyond n zeroed. Portable: a handful of word operations per plane.
inline void plane_count_sign(const std::uint64_t* counters, std::size_t n_planes,
                             std::size_t words, std::size_t n, std::int32_t tau2,
                             std::uint64_t* out_words) noexcept {
    const std::int64_t limit = (static_cast<std::int64_t>(tau2) + 1) >> 1; // ceil
    const std::size_t out_n = sign_words(n);
    for (std::size_t w = 0; w < out_n; ++w) {
        std::uint64_t less = 0; // no count is below a limit <= 0
        if (limit > 0 && n_planes < 63 && (limit >> n_planes) != 0) {
            less = ~std::uint64_t{0}; // every representable count is below it
        } else if (limit > 0) {
            // less = maj(~c_j, less, L_j): bit j of the limit decides where
            // the count's bit differs, equal bits keep the lower verdict.
            for (std::size_t j = 0; j < n_planes; ++j) {
                const std::uint64_t not_c = ~counters[j * words + w];
                const std::uint64_t t = 0 - static_cast<std::uint64_t>((limit >> j) & 1);
                less = (not_c & (less | t)) | (less & t);
            }
        }
        out_words[w] = less;
    }
    if (n % 64 != 0) out_words[out_n - 1] &= ~std::uint64_t{0} >> (64 - n % 64);
}

// --- rematerializing encode kernels ---------------------------------------
//
// out[j] += sum_{p} ((sobol_fraction_p(d_begin + j) ^ shifts[p]) <=
// bounds[p]) — the geq accumulation with the stored bank replaced by
// on-the-fly Sobol regeneration. Pixel p's direction numbers are the
// `dir_words` u32 words at directions[p * dir_words]; the caller guarantees
// dir_words >= bit_width(d_begin + dim_count), which covers every
// countr_zero index the Gray-code stepping can produce (the encoder passes
// bit_width(dim)). The comparison against the quantized intensity is folded
// into `bounds` (largest raw fraction the pixel's intensity still reaches)
// and the scramble into `shifts`, so the stored-bank byte compare becomes
// one u32 unsigned compare — bit-identical to geq_plane_count on the
// stored bank for every tile split of [0, dim).
//
// The blocked implementations exploit gray(16m + k) = gray(16m) ^ gray(k):
// a 16-entry per-pixel delta table turns the serial Gray-code recurrence
// into 16 independent XOR+compare lanes per block, with one table step
// (base ^= v[countr_zero(m + 1) + 4]) between blocks.

/// Pinned scalar oracle: serial Gray-code stepping, one compare per
/// (pixel, dim). The baseline the blocked/wide kernels are tested against.
UHD_SCALAR_REFERENCE inline void geq_rematerialize_accumulate_reference(
    const std::uint32_t* directions, std::size_t dir_words,
    const std::uint32_t* shifts, const std::uint32_t* bounds, std::size_t npix,
    std::uint64_t d_begin, std::size_t dim_count, std::int32_t* out) noexcept {
    for (std::size_t p = 0; p < npix; ++p) {
        const std::uint32_t* v = directions + p * dir_words;
        // Seek to the tile start via the Gray-code closed form, scramble
        // key folded in so the inner compare needs no XOR.
        std::uint32_t state = shifts[p];
        for (std::uint64_t g = d_begin ^ (d_begin >> 1); g != 0; g &= g - 1) {
            state ^= v[std::countr_zero(g)];
        }
        const std::uint32_t bound = bounds[p];
        std::uint64_t index = d_begin;
        UHD_NOVECTOR_LOOP
        for (std::size_t j = 0; j < dim_count; ++j) {
            out[j] += static_cast<std::int32_t>(state <= bound);
            state ^= v[std::countr_zero(index + 1)];
            ++index;
        }
    }
}

/// Portable blocked kernel: 16-dimension blocks through the delta table
/// (the compiler is free to vectorize the 16 independent lanes), scalar
/// stepping for the unaligned head/tail. Bit-identical to the reference.
inline void geq_rematerialize_accumulate_portable(
    const std::uint32_t* directions, std::size_t dir_words,
    const std::uint32_t* shifts, const std::uint32_t* bounds, std::size_t npix,
    std::uint64_t d_begin, std::size_t dim_count, std::int32_t* out) noexcept {
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
        std::uint32_t delta[16];
        remat_delta_table(v, delta);
        for (; index + 16 <= end; index += 16, j += 16) {
            for (unsigned k = 0; k < 16; ++k) {
                out[j + k] += static_cast<std::int32_t>((state ^ delta[k]) <= bound);
            }
            // Block step 16m -> 16(m+1): gray(16m) ^ gray(16m + 16) has
            // exactly bits {3, countr_zero(m + 1) + 4} set.
            state ^= v[3] ^ v[std::countr_zero((index >> 4) + 1) + 4];
        }
        for (; index < end; ++index, ++j) {
            out[j] += static_cast<std::int32_t>(state <= bound);
            state ^= v[std::countr_zero(index + 1)];
        }
    }
}

// --- sign-binarize kernels ------------------------------------------------
//
// Pack the sign bits of an int32 accumulator span into 64-bit words under
// the hypervector convention (bit 1 = -1): bit d is set exactly when
// v[d] < 0, so >= 0 maps to +1 — the same tie rule as accumulator::sign()
// and the hardware's popcount >= TOB binarizer. The output holds
// ceil(n / 64) words and every kernel zeroes the tail bits beyond n, so the
// result satisfies the bitstream tail invariant as-is.

/// True byte-at-a-time oracle for sign binarization (pinned scalar; the
/// baseline the word-parallel kernels are tested and benchmarked against).
UHD_SCALAR_REFERENCE inline void sign_binarize_reference(
    const std::int32_t* v, std::size_t n, std::uint64_t* words) noexcept {
    for (std::size_t w = 0; w < sign_words(n); ++w) words[w] = 0;
    UHD_NOVECTOR_LOOP
    for (std::size_t d = 0; d < n; ++d) {
        if (v[d] < 0) words[d / 64] |= std::uint64_t{1} << (d % 64);
    }
}

/// SWAR kernel: two int32 values per u64 load — bits 31 and 63 of the load
/// are exactly the two sign bits on little-endian, so one full output word
/// costs 32 loads and a handful of shifts. Big-endian builds (where the
/// pair order inside the load is swapped) take a plain per-element loop
/// the compiler is free to vectorize.
inline void sign_binarize_swar(const std::int32_t* v, std::size_t n,
                               std::uint64_t* words) noexcept {
    if constexpr (std::endian::native != std::endian::little) {
        for (std::size_t w = 0; w < sign_words(n); ++w) words[w] = 0;
        for (std::size_t d = 0; d < n; ++d) {
            if (v[d] < 0) words[d / 64] |= std::uint64_t{1} << (d % 64);
        }
        return;
    }
    std::size_t d = 0;
    std::size_t w = 0;
    for (; d + 64 <= n; d += 64, ++w) {
        std::uint64_t bits = 0;
        for (std::size_t i = 0; i < 32; ++i) {
            std::uint64_t pair;
            __builtin_memcpy(&pair, v + d + 2 * i, 8);
            bits |= ((pair >> 31) & 1u) << (2 * i);
            bits |= (pair >> 63) << (2 * i + 1);
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

/// popcount(a XOR b) over `n` packed words: the Hamming reduction the
/// block kernels' ragged query and row edges fall back to.
[[nodiscard]] inline std::uint64_t xor_popcount_words(const std::uint64_t* a,
                                                      const std::uint64_t* b,
                                                      std::size_t n) noexcept {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) total += std::popcount(a[i] ^ b[i]);
    return total;
}

// --- query-block Hamming kernels (multi-query bitwise GEMM) ---------------
//
// The associative search over a packed memory: `rows` holds `n_rows`
// binarized class vectors back-to-back, `row_words` u64 words each, and a
// block of packed queries (same packing) is scanned against all of them in
// one call — a single query is the n_queries = 1 block. The queries x rows
// distance plane is tiled (4 queries x 2 rows per inner tile here; the wide
// backends use the same shape over vector words) so each class row is
// streamed from memory once per query *tile* instead of once per query.
// Distances are exact integer popcounts, so any tile order gives the same
// sums. The fused argmin2 variant applies row updates in ascending row
// order per query, so ties resolve to the lowest row index (strict <) —
// the first-wins argmax of the per-class cosine scan it replaces, because
// cosine = (D - 2 * hamming) / D is strictly decreasing in the distance.

/// Pinned scalar oracle for the query-block window extension.
UHD_SCALAR_REFERENCE inline void hamming_block_extend_reference(
    const std::uint64_t* queries, std::size_t query_words, std::size_t n_queries,
    const std::uint64_t* rows, std::size_t row_words, std::size_t from_word,
    std::size_t to_word, std::size_t n_rows, std::uint64_t* distances) noexcept {
    for (std::size_t q = 0; q < n_queries; ++q) {
        const std::uint64_t* query = queries + q * query_words;
        for (std::size_t row = 0; row < n_rows; ++row) {
            std::uint64_t distance = 0;
            UHD_NOVECTOR_LOOP
            for (std::size_t w = from_word; w < to_word; ++w) {
                distance += static_cast<std::uint64_t>(
                    std::popcount(query[w] ^ rows[row * row_words + w]));
            }
            distances[q * n_rows + row] += distance;
        }
    }
}

/// Pinned scalar oracle for the fused query-block argmin + runner-up.
UHD_SCALAR_REFERENCE inline void hamming_block_argmin2_prefix_reference(
    const std::uint64_t* queries, std::size_t query_words, std::size_t n_queries,
    const std::uint64_t* rows, std::size_t row_words, std::size_t prefix_words,
    std::size_t n_rows, argmin2_result* results) noexcept {
    for (std::size_t q = 0; q < n_queries; ++q) {
        const std::uint64_t* query = queries + q * query_words;
        argmin2_result r{0, ~std::uint64_t{0}, ~std::uint64_t{0}};
        for (std::size_t row = 0; row < n_rows; ++row) {
            std::uint64_t distance = 0;
            UHD_NOVECTOR_LOOP
            for (std::size_t w = 0; w < prefix_words; ++w) {
                distance += static_cast<std::uint64_t>(
                    std::popcount(query[w] ^ rows[row * row_words + w]));
            }
            if (distance < r.distance) {
                r.runner_up = r.distance;
                r.distance = distance;
                r.index = row;
            } else if (distance < r.runner_up) {
                r.runner_up = distance;
            }
        }
        results[q] = r;
    }
}

/// Register-blocked portable tile: distances over [from_word, to_word) for
/// a full 4-query x 2-row tile, eight u64 accumulators live across the one
/// pass over the two rows' window words.
inline void hamming_block_tile_4x2(const std::uint64_t* q0, const std::uint64_t* q1,
                                   const std::uint64_t* q2, const std::uint64_t* q3,
                                   const std::uint64_t* r0, const std::uint64_t* r1,
                                   std::size_t from_word, std::size_t to_word,
                                   std::uint64_t d[4][2]) noexcept {
    std::uint64_t a0 = 0, a1 = 0, b0 = 0, b1 = 0;
    std::uint64_t c0 = 0, c1 = 0, e0 = 0, e1 = 0;
    for (std::size_t w = from_word; w < to_word; ++w) {
        const std::uint64_t rw0 = r0[w];
        const std::uint64_t rw1 = r1[w];
        a0 += static_cast<std::uint64_t>(std::popcount(q0[w] ^ rw0));
        a1 += static_cast<std::uint64_t>(std::popcount(q0[w] ^ rw1));
        b0 += static_cast<std::uint64_t>(std::popcount(q1[w] ^ rw0));
        b1 += static_cast<std::uint64_t>(std::popcount(q1[w] ^ rw1));
        c0 += static_cast<std::uint64_t>(std::popcount(q2[w] ^ rw0));
        c1 += static_cast<std::uint64_t>(std::popcount(q2[w] ^ rw1));
        e0 += static_cast<std::uint64_t>(std::popcount(q3[w] ^ rw0));
        e1 += static_cast<std::uint64_t>(std::popcount(q3[w] ^ rw1));
    }
    d[0][0] = a0; d[0][1] = a1;
    d[1][0] = b0; d[1][1] = b1;
    d[2][0] = c0; d[2][1] = c1;
    d[3][0] = e0; d[3][1] = e1;
}

/// Portable register-blocked query-block window extension (4 queries x
/// 2 rows per inner tile; ragged edges fall back to per-pair reductions).
inline void hamming_block_extend_portable(
    const std::uint64_t* queries, std::size_t query_words, std::size_t n_queries,
    const std::uint64_t* rows, std::size_t row_words, std::size_t from_word,
    std::size_t to_word, std::size_t n_rows, std::uint64_t* distances) noexcept {
    const std::size_t span = to_word - from_word;
    std::size_t q = 0;
    for (; q + 4 <= n_queries; q += 4) {
        const std::uint64_t* q0 = queries + (q + 0) * query_words;
        const std::uint64_t* q1 = queries + (q + 1) * query_words;
        const std::uint64_t* q2 = queries + (q + 2) * query_words;
        const std::uint64_t* q3 = queries + (q + 3) * query_words;
        std::size_t row = 0;
        for (; row + 2 <= n_rows; row += 2) {
            std::uint64_t d[4][2];
            hamming_block_tile_4x2(q0, q1, q2, q3, rows + row * row_words,
                                   rows + (row + 1) * row_words, from_word, to_word,
                                   d);
            for (std::size_t qi = 0; qi < 4; ++qi) {
                distances[(q + qi) * n_rows + row] += d[qi][0];
                distances[(q + qi) * n_rows + row + 1] += d[qi][1];
            }
        }
        for (; row < n_rows; ++row) {
            const std::uint64_t* r0 = rows + row * row_words + from_word;
            distances[(q + 0) * n_rows + row] += xor_popcount_words(q0 + from_word, r0, span);
            distances[(q + 1) * n_rows + row] += xor_popcount_words(q1 + from_word, r0, span);
            distances[(q + 2) * n_rows + row] += xor_popcount_words(q2 + from_word, r0, span);
            distances[(q + 3) * n_rows + row] += xor_popcount_words(q3 + from_word, r0, span);
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

/// argmin2 update for one (row, distance) observation — rows must be fed in
/// ascending order per query to preserve the first-wins tie rule.
inline void argmin2_update(argmin2_result& r, std::size_t row,
                           std::uint64_t distance) noexcept {
    if (distance < r.distance) {
        r.runner_up = r.distance;
        r.distance = distance;
        r.index = row;
    } else if (distance < r.runner_up) {
        r.runner_up = distance;
    }
}

/// Portable fused query-block argmin + runner-up (same 4x2 tiling as the
/// window extension; per-query argmin2 state updated in ascending row
/// order, so the result is bit-identical to per-query prefix scans).
inline void hamming_block_argmin2_prefix_portable(
    const std::uint64_t* queries, std::size_t query_words, std::size_t n_queries,
    const std::uint64_t* rows, std::size_t row_words, std::size_t prefix_words,
    std::size_t n_rows, argmin2_result* results) noexcept {
    for (std::size_t q = 0; q < n_queries; ++q) {
        results[q] = argmin2_result{0, ~std::uint64_t{0}, ~std::uint64_t{0}};
    }
    std::size_t q = 0;
    for (; q + 4 <= n_queries; q += 4) {
        const std::uint64_t* q0 = queries + (q + 0) * query_words;
        const std::uint64_t* q1 = queries + (q + 1) * query_words;
        const std::uint64_t* q2 = queries + (q + 2) * query_words;
        const std::uint64_t* q3 = queries + (q + 3) * query_words;
        std::size_t row = 0;
        for (; row + 2 <= n_rows; row += 2) {
            std::uint64_t d[4][2];
            hamming_block_tile_4x2(q0, q1, q2, q3, rows + row * row_words,
                                   rows + (row + 1) * row_words, 0, prefix_words, d);
            for (std::size_t qi = 0; qi < 4; ++qi) {
                argmin2_update(results[q + qi], row, d[qi][0]);
                argmin2_update(results[q + qi], row + 1, d[qi][1]);
            }
        }
        for (; row < n_rows; ++row) {
            const std::uint64_t* r0 = rows + row * row_words;
            argmin2_update(results[q + 0], row, xor_popcount_words(q0, r0, prefix_words));
            argmin2_update(results[q + 1], row, xor_popcount_words(q1, r0, prefix_words));
            argmin2_update(results[q + 2], row, xor_popcount_words(q2, r0, prefix_words));
            argmin2_update(results[q + 3], row, xor_popcount_words(q3, r0, prefix_words));
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

// --- blocked int32 dot-product kernels (integer-cosine inference) ---------
//
// Each product is computed exactly in int64 (|a|,|b| <= 2^31 so the product
// fits) and accumulated into four independent double lanes; only the lane
// additions round. Four lanes break the serial dependence so the compiler
// can pipeline/vectorize the conversion+add, and the lane split is fixed,
// so results are deterministic (though not bit-identical to a strictly
// serial double accumulation). Every backend runs this exact algorithm —
// the fixed lane order makes the result bit-identical across backends even
// when a wider TU vectorizes the lane arithmetic.

/// Sum of squares of an int32 span, in double.
[[nodiscard]] inline double sum_squares_i32(const std::int32_t* v,
                                            std::size_t n) noexcept {
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

/// Dot product of two int32 spans, in double.
[[nodiscard]] inline double dot_i32(const std::int32_t* a, const std::int32_t* b,
                                    std::size_t n) noexcept {
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

/// Sum of v[i] over the set bits of a packed mask covering n values
/// (mask words beyond bit n must be zero — the bitstream tail invariant).
/// The packed-query integer dot product behind cosine(hypervector, int
/// row): with bit 1 = -1, dot(query, v) = sum(v) - 2 * masked_sum(mask, v).
/// A plain portable function, not a dispatched kernel: it has one caller,
/// and every backend ran this same loop when it was a table slot.
[[nodiscard]] inline std::int64_t masked_sum_i32(const std::uint64_t* mask,
                                                 const std::int32_t* v,
                                                 std::size_t n) noexcept {
    std::int64_t total = 0;
    const std::size_t full_words = n / 64;
    for (std::size_t wi = 0; wi <= full_words; ++wi) {
        const std::size_t base = wi * 64;
        if (base >= n) break;
        for (std::uint64_t m = mask[wi]; m != 0; m &= m - 1) {
            total += v[base + static_cast<std::size_t>(std::countr_zero(m))];
        }
    }
    return total;
}

} // namespace uhd::simd

#endif // UHD_COMMON_SIMD_HPP

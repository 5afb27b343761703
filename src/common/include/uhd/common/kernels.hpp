// uhd::kernels — the runtime-dispatched kernel registry behind every hot
// path of the software datapath.
//
// The build compiles one translation unit per backend:
//   * scalar — the pinned byte-at-a-time oracles (kernels_scalar.cpp); the
//     permanent reference backend every other backend is measured and
//     tested against.
//   * swar   — portable 64-bit word-parallel kernels (kernels_swar.cpp);
//     admissible on any 64-bit machine, the generic-build fast default.
//   * avx2   — 256-bit kernels (kernels_avx2.cpp, compiled with a per-file
//     -mavx2 so generic builds still carry it); admissible only when the
//     runtime cpu_features probe reports CPU *and* OS AVX2 support.
//   * avx512 — 512-bit kernels (kernels_avx512.cpp, per-file -mavx512f
//     -mavx512bw); admissible only when the probe reports AVX-512F +
//     AVX-512BW *and* the OS saves ZMM state (XCR0). Carries two popcount
//     flavors (nibble-LUT and VPOPCNTDQ) and picks per process at runtime.
//
// One table is selected per process on first use: the widest admissible
// backend, overridable with UHD_BACKEND=auto|scalar|swar|avx2|avx512. An
// override naming an unknown backend, or forcing one the probe rejects,
// throws a uhd::error with a diagnostic listing the admissible choices —
// it never silently falls back and never executes unsupported
// instructions.
//
// Every backend is bit-exact against the scalar reference for the integer
// kernels, and runs the identical fixed-lane-order algorithm for the
// double reductions, so results are bit-identical across backends; the
// per-backend equivalence suites (tests/test_simd_kernels.cpp,
// tests/test_block_kernels.cpp, tests/test_backend_dispatch.cpp) enforce
// this.
#ifndef UHD_COMMON_KERNELS_HPP
#define UHD_COMMON_KERNELS_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "uhd/common/cpu_features.hpp"

namespace uhd::kernels {

/// argmin + runner-up of a prefix-window Hamming scan.
struct argmin2_result {
    std::size_t index;       ///< nearest row (lowest index on ties)
    std::uint64_t distance;  ///< winning distance over the window
    std::uint64_t runner_up; ///< second-best distance (all-ones when n_rows < 2)
};

/// Number of 64-bit words needed for `n` packed sign bits.
[[nodiscard]] constexpr std::size_t sign_words(std::size_t n) noexcept {
    return (n + 63) / 64;
}

// --- bit-plane threshold bank layout ---------------------------------------
//
// The stored threshold bank keeps M = bit_width(levels - 1) bit planes per
// pixel (plane k holds bit k of every stored value, the paper's M-bit BRAM
// word sliced across D; the encoder stores each threshold S as
// T = (S - 1) mod 2^M, see geq_plane_count). The dimension words are cut
// into chunks of plane_chunk_words; within a chunk, pixel p's M planes sit
// back to back and pixels follow in order, so a kernel that finishes one
// chunk for every pixel before moving on streams the bank front to back.
// The last chunk is as wide as the words left (no padding), so the bank is
// exactly npix * M * words words.
//
// A chunk is itself a bank: the chunk of `width` words at word `first`
// starts at first * npix * M, and inside it word w of plane k of pixel p
// sits at plane_word_offset(npix, M, width, p, k, w). The stored encode
// relies on this. It counts a whole batch one chunk at a time, passing
// each chunk to geq_plane_count as a `width`-word bank with the matching
// slice of its base (SimdKernels.PlaneBankChunksAreStandaloneBanks).

/// Dimension words per bank chunk (one 512-bit vector).
inline constexpr std::size_t plane_chunk_words = 8;

/// Offset, in u64 words, of word `w` of plane `k` of pixel `p` in a
/// bit-plane bank of `npix` pixels x `m` planes x `words` words.
[[nodiscard]] constexpr std::size_t plane_word_offset(std::size_t npix, std::size_t m,
                                                      std::size_t words, std::size_t p,
                                                      std::size_t k,
                                                      std::size_t w) noexcept {
    const std::size_t first = w - w % plane_chunk_words;
    const std::size_t width =
        words - first < plane_chunk_words ? words - first : plane_chunk_words;
    return first * npix * m + (p * m + k) * width + (w - first);
}

/// Bit-sliced counter planes geq_plane_count writes for `npix` pixels:
/// enough bits for a count of npix.
[[nodiscard]] constexpr std::size_t count_planes(std::size_t npix) noexcept {
    return static_cast<std::size_t>(std::bit_width(npix));
}

/// One entry of geq_plane_count's active-pixel list: a bank pixel and the
/// level its stored values are compared against.
struct active_pixel {
    std::uint32_t pixel; ///< pixel index into the bank
    std::uint32_t level; ///< comparator operand, < 2^m
};

/// One backend: a name, its admissibility predicate, and the full hot-path
/// kernel set as plain function pointers. Tables are immutable process-wide
/// constants defined by the per-ISA translation units.
struct kernel_table {
    /// Backend name as accepted by UHD_BACKEND ("scalar", "swar", "avx2",
    /// "avx512").
    const char* name;

    /// True when this backend may run on the probed CPU.
    bool (*supported)(const cpu_features& features);

    /// The stored bank's producer: one pixel's whole build in one pass
    /// over its Sobol stream. The pixel's threshold at dimension d < dim is
    ///     S[d] = ((x(d) ^ shift) * (levels - 1) + 2^31) >> 32,
    /// ld::quantize_fraction's integer rule on the digitally shifted
    /// fraction x(d) ^ shift, where x(d) is the XOR of directions[i] over
    /// the set bits of d ^ (d >> 1): the Gray-code order stream of
    /// ld::sobol_sequence, whose 32 direction numbers `directions` holds
    /// (v_1 first). Writes
    ///  * the pixel's m = bit_width(levels - 1) plane rows of the
    ///    npix-pixel bank `planes`, word w of plane k at
    ///    plane_word_offset(npix, m, sign_words(dim), pixel, k, w): bit d of
    ///    plane k is bit k of T[d] = (S[d] - 1) mod 2^m (the relabel
    ///    geq_plane_count reads), and every plane bit past dim is 1;
    ///  * level_counts[q] = #{d < dim : S[d] = q} for every q < levels;
    ///  * zero_words, sign_words(dim) words: bit d is set iff d < dim and
    ///    S[d] = 0 (no bit past dim).
    /// No other pixel's words are touched, and nothing is read from
    /// `planes`. Requires 2 <= levels <= 256 and 1 <= dim <= 2^31. The
    /// scalar body generates, quantizes and slices one value at a time;
    /// the others walk the stream in aligned blocks,
    /// x(2^j a + u) = x(2^j a) ^ x(u) for u < 2^j, so a block is one
    /// broadcast state XOR a per-pixel delta table.
    void (*sobol_plane_row)(const std::uint32_t* directions, std::uint32_t shift,
                            unsigned levels, std::size_t dim, std::size_t npix,
                            std::size_t pixel, std::uint64_t* planes,
                            std::uint32_t* level_counts, std::uint64_t* zero_words);

    /// Bit-plane threshold count over an active-pixel list — the whole
    /// stored-bank encode inner double loop. `planes` is an npix-pixel bank
    /// of `m` bit planes of `words` u64 words each, laid out as
    /// plane_word_offset() describes; pixel p's stored value at dimension d
    /// is T_p[d] = sum_k (bit d of plane k) << k. `base` holds
    /// count_planes(npix) bit-sliced counter planes of `words` words. Writes
    ///     count[d] = base[d] + #{i < n_active : active[i].level >= T_a[d]},
    /// a = active[i].pixel, for every d < 64 * words, bit-sliced into
    /// count_planes(npix) counter planes: bit d % 64 of
    /// counters[j * words + d / 64] is bit j of count[d]. Only the listed
    /// pixels' planes are read. `active` lists distinct pixels in ascending
    /// order, so each chunk streams front to back. Requires 1 <= m <= 8,
    /// every level < 2^m and base[d] + n_active <= npix (every count fits
    /// its counter planes); any npix >= 1, n_active = 0 included.
    ///
    /// The encoder's use: the bank stores T = (S - 1) mod 2^m for the
    /// quantized threshold S, the list holds (p, q_p - 1) for every pixel
    /// at level q_p >= 1, and base is Z0[d] = #{p : S_p[d] = 0}. A level-0
    /// pixel reaches only S = 0, and S = 0 relabels to T = 2^m - 1, which
    /// no listed level q - 1 <= 2^m - 2 reaches, so
    ///     #{p : q_p >= S_p[d]} = Z0[d] + #{p : q_p >= 1, 1 <= S_p[d] <= q_p}
    /// is exactly this count.
    void (*geq_plane_count)(const active_pixel* active, std::size_t n_active,
                            std::size_t npix, const std::uint64_t* planes,
                            std::size_t m, std::size_t words,
                            const std::uint64_t* base, std::uint64_t* counters);

    /// The int32 finisher of geq_plane_count: out[d] += 2 * count[d] - tau2
    /// for d < n, reading `n_planes` bit-sliced counter planes of `words`
    /// words (n <= 64 * words; n_planes <= 30, so 2 * count fits in int32)
    /// — the centred encode added into a caller's accumulator row (a
    /// zeroed row receives the encode itself).
    void (*plane_count_center)(const std::uint64_t* counters, std::size_t n_planes,
                               std::size_t words, std::size_t n, std::int32_t tau2,
                               std::int32_t* out);

    /// Rematerializing encode tile: out[j] += sum_{p<npix}
    /// ((sobol_fraction_p(d_begin + j) ^ shifts[p]) <= bounds[p]) for j in
    /// [0, dim_count), where sobol_fraction_p(d) is the d-th 32-bit Sobol
    /// fraction of pixel p's direction numbers (`dir_words` u32 words at
    /// directions[p * dir_words], v_1 first). The caller folds the
    /// quantization comparison into `bounds` (largest raw fraction whose
    /// quantized value the pixel's intensity still reaches) and the
    /// per-pixel scramble into `shifts`, so one unsigned compare per
    /// (pixel, dim) replaces a stored threshold. Pure integer
    /// accumulation: any dim tiling over [d_begin, d_begin + dim_count)
    /// counts exactly what geq_plane_count counts over the stored bank.
    void (*geq_rematerialize_accumulate)(const std::uint32_t* directions,
                                         std::size_t dir_words,
                                         const std::uint32_t* shifts,
                                         const std::uint32_t* bounds,
                                         std::size_t npix, std::uint64_t d_begin,
                                         std::size_t dim_count, std::int32_t* out);

    /// Pack the sign bits of an int32 span (bit 1 = v[d] < 0) into
    /// ceil(n/64) words, zeroing the tail bits beyond n.
    void (*sign_binarize)(const std::int32_t* v, std::size_t n,
                          std::uint64_t* words);

    /// The one associative-search kernel: query-block argmin + runner-up
    /// over the first `prefix_words` words of every row. `queries` holds
    /// n_queries packed queries back-to-back, `query_words` words each
    /// (>= prefix_words); `rows` holds n_rows rows of `row_words` words.
    ///  * distances == nullptr: from_word is 0, and results[q] is the scan
    ///    of query_q over words [0, prefix_words), with no distance matrix
    ///    written (class_memory::nearest_block's full scan).
    ///  * With a buffer: distances[q * n_rows + r] holds query_q's distance
    ///    to row r over words [0, from_word). The call extends it to
    ///    [0, prefix_words), reading only the new words, and results[q] is
    ///    argmin2 over those totals (the dynamic cascade, stage by stage).
    /// Rows compete in ascending order per query: ties go to the lowest row
    /// index, and the runner-up is all-ones when n_rows < 2. Wide backends
    /// register-block the (query, row) plane so each class row is streamed
    /// once per query tile; distances are exact integers, so any blocking,
    /// n_queries = 1 included, gives the same results. Each body picks the
    /// running-distance step once per call, never per (query, row) pair.
    void (*hamming_block_argmin2_prefix)(const std::uint64_t* queries,
                                         std::size_t query_words,
                                         std::size_t n_queries,
                                         const std::uint64_t* rows,
                                         std::size_t row_words,
                                         std::size_t from_word,
                                         std::size_t prefix_words,
                                         std::size_t n_rows,
                                         std::uint64_t* distances,
                                         argmin2_result* results);

    /// Sum of squares of an int32 span (fixed 4-lane double accumulation).
    double (*sum_squares_i32)(const std::int32_t* v, std::size_t n);

    /// Dot product of two int32 spans (fixed 4-lane double accumulation).
    double (*dot_i32)(const std::int32_t* a, const std::int32_t* b, std::size_t n);
};

/// Every backend compiled into this binary, widest-last (scalar, swar, and
/// avx2 when the toolchain could build it).
[[nodiscard]] std::span<const kernel_table* const> compiled_backends() noexcept;

/// Compiled-in backend by name; nullptr when unknown.
[[nodiscard]] const kernel_table* find_backend(std::string_view name) noexcept;

/// The compiled backends the cpu() probe admits on this machine, in
/// registry (widest-last) order — always at least scalar and swar. The
/// one source of truth for "which backends may run here": the per-backend
/// test and bench sweeps iterate over this.
[[nodiscard]] std::span<const kernel_table* const> admissible_backends();

/// Resolve a backend request against a probe. "auto" (or empty) picks the
/// widest admissible compiled backend; a concrete name must be both
/// compiled in and admissible. Throws uhd::error with a diagnostic listing
/// the valid names otherwise.
[[nodiscard]] const kernel_table& select_backend(std::string_view request,
                                                 const cpu_features& features);

/// The process-wide active backend: selected on first call from the
/// UHD_BACKEND environment override (default "auto") and the cpu()
/// probe, then cached. Throws on an invalid override — a typo'd or
/// unsupported UHD_BACKEND fails the first kernel call loudly instead of
/// silently computing on the wrong engine.
[[nodiscard]] const kernel_table& active();

/// Re-select the active backend (tests / bench harnesses that sweep
/// backends in-process). Same validation as select_backend.
void force_backend(std::string_view request);

/// The UHD_BACKEND override in effect ("" when unset).
[[nodiscard]] std::string_view backend_override() noexcept;

// --- dispatched entry points ----------------------------------------------
//
// Thin wrappers over active() so call sites read like plain functions; the
// cost per call is one atomic load plus an indirect call, amortized over
// whole-image / whole-row kernel bodies.

inline void sobol_plane_row(const std::uint32_t* directions, std::uint32_t shift,
                            unsigned levels, std::size_t dim, std::size_t npix,
                            std::size_t pixel, std::uint64_t* planes,
                            std::uint32_t* level_counts, std::uint64_t* zero_words) {
    active().sobol_plane_row(directions, shift, levels, dim, npix, pixel, planes,
                             level_counts, zero_words);
}

inline void geq_plane_count(const active_pixel* active_list, std::size_t n_active,
                            std::size_t npix, const std::uint64_t* planes,
                            std::size_t m, std::size_t words,
                            const std::uint64_t* base, std::uint64_t* counters) {
    active().geq_plane_count(active_list, n_active, npix, planes, m, words, base,
                             counters);
}

inline void plane_count_center(const std::uint64_t* counters, std::size_t n_planes,
                               std::size_t words, std::size_t n, std::int32_t tau2,
                               std::int32_t* out) {
    active().plane_count_center(counters, n_planes, words, n, tau2, out);
}

inline void geq_rematerialize_accumulate(const std::uint32_t* directions,
                                         std::size_t dir_words,
                                         const std::uint32_t* shifts,
                                         const std::uint32_t* bounds,
                                         std::size_t npix, std::uint64_t d_begin,
                                         std::size_t dim_count, std::int32_t* out) {
    active().geq_rematerialize_accumulate(directions, dir_words, shifts, bounds,
                                          npix, d_begin, dim_count, out);
}

inline void sign_binarize(const std::int32_t* v, std::size_t n,
                          std::uint64_t* words) {
    active().sign_binarize(v, n, words);
}

inline void hamming_block_argmin2_prefix(
    const std::uint64_t* queries, std::size_t query_words, std::size_t n_queries,
    const std::uint64_t* rows, std::size_t row_words, std::size_t from_word,
    std::size_t prefix_words, std::size_t n_rows, std::uint64_t* distances,
    argmin2_result* results) {
    active().hamming_block_argmin2_prefix(queries, query_words, n_queries, rows,
                                          row_words, from_word, prefix_words, n_rows,
                                          distances, results);
}

[[nodiscard]] inline double sum_squares_i32(const std::int32_t* v, std::size_t n) {
    return active().sum_squares_i32(v, n);
}

[[nodiscard]] inline double dot_i32(const std::int32_t* a, const std::int32_t* b,
                                    std::size_t n) {
    return active().dot_i32(a, b, n);
}

} // namespace uhd::kernels

#endif // UHD_COMMON_KERNELS_HPP

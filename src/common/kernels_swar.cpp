// The SWAR backend: 64-bit word-parallel kernels with no ISA requirement
// beyond a 64-bit integer unit — the fast default for generic builds and
// non-x86 targets. The bit-plane count runs the carry-save tree on u64
// words, so it has no value precondition.
#include <cstdint>

#include "kernels_detail.hpp"
#include "uhd/common/simd.hpp"

namespace uhd::kernels::detail {

namespace {

bool supported(const cpu_features&) { return true; }

void sobol_plane_row(const std::uint32_t* directions, std::uint32_t shift,
                     unsigned levels, std::size_t dim, std::size_t npix, std::size_t pixel,
                     std::uint64_t* planes, std::uint32_t* level_counts,
                     std::uint64_t* zero_words) {
    simd::sobol_plane_row_swar(directions, shift, levels, dim, npix, pixel, planes,
                               level_counts, zero_words);
}

void geq_plane_count(const active_pixel* active, std::size_t n_active, std::size_t npix,
                     const std::uint64_t* planes, std::size_t m, std::size_t words,
                     const std::uint64_t* base, std::uint64_t* counters) {
    simd::geq_plane_count_swar(active, n_active, npix, planes, m, words, base,
                               counters);
}

void plane_count_center(const std::uint64_t* counters, std::size_t n_planes,
                        std::size_t words, std::size_t n, std::int32_t tau2,
                        std::int32_t* out) {
    simd::plane_count_center_portable(counters, n_planes, words, n, tau2, out);
}

void geq_rematerialize_accumulate(const std::uint32_t* directions,
                                  std::size_t dir_words, const std::uint32_t* shifts,
                                  const std::uint32_t* bounds, std::size_t npix,
                                  std::uint64_t d_begin, std::size_t dim_count,
                                  std::int32_t* out) {
    // u32 compares have no SWAR packing win; the blocked portable body (16
    // independent lanes per Gray block) is the fast generic implementation.
    simd::geq_rematerialize_accumulate_portable(directions, dir_words, shifts,
                                                bounds, npix, d_begin, dim_count,
                                                out);
}

void sign_binarize(const std::int32_t* v, std::size_t n, std::uint64_t* words) {
    simd::sign_binarize_swar(v, n, words);
}

void hamming_block_argmin2_prefix(const std::uint64_t* queries,
                                  std::size_t query_words, std::size_t n_queries,
                                  const std::uint64_t* rows, std::size_t row_words,
                                  std::size_t from_word, std::size_t prefix_words,
                                  std::size_t n_rows, std::uint64_t* distances,
                                  argmin2_result* results) {
    simd::hamming_block_argmin2_prefix_portable(queries, query_words, n_queries,
                                                rows, row_words, from_word,
                                                prefix_words, n_rows, distances,
                                                results);
}

double sum_squares_i32(const std::int32_t* v, std::size_t n) {
    return simd::sum_squares_i32(v, n);
}

double dot_i32(const std::int32_t* a, const std::int32_t* b, std::size_t n) {
    return simd::dot_i32(a, b, n);
}

constexpr kernel_table table{
    "swar",
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

const kernel_table& swar_table() noexcept { return table; }

} // namespace uhd::kernels::detail

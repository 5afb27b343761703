// The scalar backend: the pinned byte-at-a-time oracles wired into a
// kernel_table. This is the permanent reference backend — UHD_BACKEND=scalar
// runs the exact code every wider backend is equivalence-tested against, so
// a cross-backend mismatch can always be bisected against it. It is
// admissible everywhere and deliberately slow: the pinned kernels refuse
// auto-vectorization (UHD_SCALAR_REFERENCE) to stay an honest baseline.
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
    // One Gray-code step, quantize, count and bit transpose per value: the
    // reference the fused and vector bodies are tested against.
    simd::sobol_plane_row_reference(directions, shift, levels, dim, npix, pixel, planes,
                                    level_counts, zero_words);
}

void geq_plane_count(const active_pixel* active, std::size_t n_active, std::size_t npix,
                     const std::uint64_t* planes, std::size_t m, std::size_t words,
                     const std::uint64_t* base, std::uint64_t* counters) {
    // One threshold decode and compare per (listed pixel, dimension) — the
    // reference the carry-save trees of the other backends are tested
    // against.
    simd::geq_plane_count_reference(active, n_active, npix, planes, m, words, base,
                                    counters);
}

void plane_count_center(const std::uint64_t* counters, std::size_t n_planes,
                        std::size_t words, std::size_t n, std::int32_t tau2,
                        std::int32_t* out) {
    simd::plane_count_center_reference(counters, n_planes, words, n, tau2, out);
}

void geq_rematerialize_accumulate(const std::uint32_t* directions,
                                  std::size_t dir_words, const std::uint32_t* shifts,
                                  const std::uint32_t* bounds, std::size_t npix,
                                  std::uint64_t d_begin, std::size_t dim_count,
                                  std::int32_t* out) {
    simd::geq_rematerialize_accumulate_reference(directions, dir_words, shifts,
                                                 bounds, npix, d_begin, dim_count,
                                                 out);
}

void sign_binarize(const std::int32_t* v, std::size_t n, std::uint64_t* words) {
    simd::sign_binarize_reference(v, n, words);
}

void hamming_block_argmin2_prefix(const std::uint64_t* queries,
                                  std::size_t query_words, std::size_t n_queries,
                                  const std::uint64_t* rows, std::size_t row_words,
                                  std::size_t from_word, std::size_t prefix_words,
                                  std::size_t n_rows, std::uint64_t* distances,
                                  argmin2_result* results) {
    simd::hamming_block_argmin2_prefix_reference(queries, query_words, n_queries,
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
    "scalar",
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

const kernel_table& scalar_table() noexcept { return table; }

} // namespace uhd::kernels::detail

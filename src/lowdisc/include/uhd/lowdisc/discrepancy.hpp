// Uniformity and independence diagnostics for threshold sequences.
//
// These quantify *why* low-discrepancy sequences make better intensity
// thresholds than pseudo-random ones (paper Section II/III): the fraction of
// sequence elements below x converges to x at rate O(log n / n) for LD
// sequences versus O(1/sqrt(n)) for pseudo-random ones, which directly
// bounds the level-hypervector encoding error.
//
// uhd-lint: test-reference — test_sobol and test_discrepancy measure the
// uniformity of the Sobol, Halton and LFSR generators with it.
#ifndef UHD_LOWDISC_DISCREPANCY_HPP
#define UHD_LOWDISC_DISCREPANCY_HPP

#include <cstddef>
#include <span>
#include <vector>

namespace uhd::ld {

/// Exact one-dimensional star discrepancy D*_n of points in [0, 1).
[[nodiscard]] double star_discrepancy(std::span<const double> points);

/// Maximum absolute error between empirical CDF and x over a threshold grid
/// of `grid` equally spaced probes (cheap discrepancy proxy for big n).
[[nodiscard]] double cdf_error(std::span<const double> points, std::size_t grid = 256);

/// Pearson correlation between two equally long scalar sequences.
[[nodiscard]] double sequence_correlation(std::span<const double> a,
                                          std::span<const double> b);

/// Chi-square statistic of the points against a uniform histogram with
/// `bins` cells (for a uniform sample, expectation ~= bins - 1).
[[nodiscard]] double chi_square_uniform(std::span<const double> points, std::size_t bins);

} // namespace uhd::ld

#endif // UHD_LOWDISC_DISCREPANCY_HPP

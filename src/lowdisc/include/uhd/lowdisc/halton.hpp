// Radical-inverse based low-discrepancy sequences: van der Corput, Halton,
// and the R2 additive-recurrence sequence. These are the ablation
// alternatives to Sobol (bench_ablation_sequences) and back the tests that
// check Sobol dimension 0 against the van der Corput reference.
#ifndef UHD_LOWDISC_HALTON_HPP
#define UHD_LOWDISC_HALTON_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace uhd::ld {

/// Radical inverse of `index` in `base` (van der Corput for base 2).
[[nodiscard]] double radical_inverse(std::uint64_t index, unsigned base);

/// First `count` points of the van der Corput sequence in `base`.
[[nodiscard]] std::vector<double> van_der_corput(std::size_t count, unsigned base = 2);

/// The n-th prime (1-based: nth_prime(1) == 2), for Halton bases.
[[nodiscard]] unsigned nth_prime(std::size_t n);

/// Multi-dimensional Halton sequence: dimension d uses the (d+1)-th prime.
class halton_sequence {
public:
    explicit halton_sequence(std::size_t dimensions);

    /// Point `index` of dimension `dim`.
    [[nodiscard]] double at(std::uint64_t index, std::size_t dim) const;

private:
    std::vector<unsigned> bases_;
};

/// R2 sequence (additive recurrence on powers of the generalized golden
/// ratio): x_n(d) = frac((n+1) * alpha_d). Cheap, deterministic, LD.
class r2_sequence {
public:
    explicit r2_sequence(std::size_t dimensions);

    [[nodiscard]] double at(std::uint64_t index, std::size_t dim) const;

private:
    std::vector<double> alphas_;
};

} // namespace uhd::ld

#endif // UHD_LOWDISC_HALTON_HPP

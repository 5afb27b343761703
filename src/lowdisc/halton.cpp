#include "uhd/lowdisc/halton.hpp"

#include <cmath>

#include "uhd/common/error.hpp"

namespace uhd::ld {

double radical_inverse(std::uint64_t index, unsigned base) {
    UHD_REQUIRE(base >= 2, "radical inverse base must be >= 2");
    double inv_base = 1.0 / static_cast<double>(base);
    double scale = inv_base;
    double value = 0.0;
    while (index != 0) {
        value += static_cast<double>(index % base) * scale;
        index /= base;
        scale *= inv_base;
    }
    return value;
}

// uhd-lint: test-reference test_halton_lfsr and test_discrepancy measure its uniformity
std::vector<double> van_der_corput(std::size_t count, unsigned base) {
    std::vector<double> points;
    points.reserve(count);
    for (std::size_t i = 0; i < count; ++i) points.push_back(radical_inverse(i, base));
    return points;
}

unsigned nth_prime(std::size_t n) {
    UHD_REQUIRE(n >= 1, "nth_prime is 1-based");
    unsigned candidate = 1;
    std::size_t found = 0;
    while (found < n) {
        ++candidate;
        bool prime = candidate >= 2;
        for (unsigned d = 2; static_cast<std::uint64_t>(d) * d <= candidate; ++d) {
            if (candidate % d == 0) {
                prime = false;
                break;
            }
        }
        if (prime) ++found;
    }
    return candidate;
}

halton_sequence::halton_sequence(std::size_t dimensions) {
    UHD_REQUIRE(dimensions >= 1, "need at least one Halton dimension");
    bases_.reserve(dimensions);
    for (std::size_t d = 0; d < dimensions; ++d) bases_.push_back(nth_prime(d + 1));
}

double halton_sequence::at(std::uint64_t index, std::size_t dim) const {
    UHD_REQUIRE(dim < bases_.size(), "Halton dimension out of range");
    return radical_inverse(index, bases_[dim]);
}

r2_sequence::r2_sequence(std::size_t dimensions) {
    UHD_REQUIRE(dimensions >= 1, "need at least one R2 dimension");
    // phi_d is the unique positive root of x^(d+1) = x + 1; alpha_d = phi^-(k).
    const double d = static_cast<double>(dimensions);
    double phi = 2.0;
    for (int iter = 0; iter < 64; ++iter) {
        phi = std::pow(1.0 + phi, 1.0 / (d + 1.0));
    }
    alphas_.reserve(dimensions);
    double a = 1.0;
    for (std::size_t k = 0; k < dimensions; ++k) {
        a /= phi;
        alphas_.push_back(a);
    }
}

double r2_sequence::at(std::uint64_t index, std::size_t dim) const {
    UHD_REQUIRE(dim < alphas_.size(), "R2 dimension out of range");
    const double x = static_cast<double>(index + 1) * alphas_[dim];
    return x - std::floor(x);
}

} // namespace uhd::ld

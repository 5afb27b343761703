// GF(2) polynomial arithmetic and primitive-polynomial search.
//
// Sobol direction numbers are built from primitive polynomials over GF(2).
// The paper uses MATLAB's built-in Sobol generator (Joe-Kuo direction
// numbers); offline we derive our own: this module enumerates primitive
// polynomials of increasing degree by exhaustive search with an exact
// order test.
//
// A polynomial p of degree d with nonzero constant term is primitive iff
//   x^(2^d - 1) == 1   (mod p)  and
//   x^((2^d-1)/q) != 1 (mod p)  for every prime q dividing 2^d - 1.
// (For odd m, x^m - 1 is squarefree over GF(2) and the order of x modulo a
// reducible p is strictly less than 2^d - 1, so the test is exact.)
//
// Polynomials are encoded as bit masks: bit i is the coefficient of x^i.
#ifndef UHD_LOWDISC_GF2_HPP
#define UHD_LOWDISC_GF2_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace uhd::ld {

/// Polynomial over GF(2), encoded with bit i = coefficient of x^i.
using gf2_poly = std::uint64_t;

/// Degree of a nonzero polynomial (index of its highest set bit).
[[nodiscard]] int gf2_degree(gf2_poly p) noexcept;

/// Carry-less product of two polynomials (no reduction).
[[nodiscard]] std::uint64_t gf2_mul(std::uint64_t a, std::uint64_t b) noexcept;

/// Remainder of `a` modulo `mod` (mod != 0).
[[nodiscard]] std::uint64_t gf2_mod(std::uint64_t a, gf2_poly mod) noexcept;

/// (a * b) mod p for polynomials below the degree of p.
[[nodiscard]] std::uint64_t gf2_mulmod(std::uint64_t a, std::uint64_t b, gf2_poly p) noexcept;

/// x^e mod p computed by square-and-multiply.
[[nodiscard]] std::uint64_t gf2_pow_x(std::uint64_t e, gf2_poly p) noexcept;

/// Prime factors (deduplicated) of n >= 2 by trial division.
[[nodiscard]] std::vector<std::uint64_t> prime_factors(std::uint64_t n);

/// The first `count` primitive polynomials in (degree, value) order.
/// Degrees up to 16 provide more than 4000 polynomials — enough for one
/// Sobol dimension per pixel of any image size used in the paper.
[[nodiscard]] std::vector<gf2_poly> primitive_polynomials(std::size_t count);

/// Smallest primitive polynomial of exactly `degree` (1 <= degree <= 32).
[[nodiscard]] gf2_poly first_primitive_of_degree(int degree);

} // namespace uhd::ld

#endif // UHD_LOWDISC_GF2_HPP

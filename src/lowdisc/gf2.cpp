#include "uhd/lowdisc/gf2.hpp"

#include <bit>

#include "uhd/common/error.hpp"

namespace uhd::ld {

int gf2_degree(gf2_poly p) noexcept {
    if (p == 0) return -1;
    return 63 - std::countl_zero(p);
}

// uhd-lint: test-reference test_gf2 checks it, and its reference enumerator reaches it through gf2_pow_x
std::uint64_t gf2_mul(std::uint64_t a, std::uint64_t b) noexcept {
    // Valid while deg(a) + deg(b) < 64 — always true for the degree <= 32
    // polynomials used here.
    std::uint64_t acc = 0;
    std::uint64_t shifted = a;
    while (b != 0) {
        if (b & 1u) acc ^= shifted;
        shifted <<= 1;
        b >>= 1;
    }
    return acc;
}

// uhd-lint: test-reference test_gf2 checks it, and its reference enumerator reaches it through gf2_pow_x
std::uint64_t gf2_mod(std::uint64_t a, gf2_poly mod) noexcept {
    const int dm = gf2_degree(mod);
    int da = gf2_degree(a);
    while (da >= dm && da >= 0) {
        a ^= mod << (da - dm);
        da = gf2_degree(a);
    }
    return a;
}

// uhd-lint: test-reference test_gf2 checks it, and its reference enumerator reaches it through gf2_pow_x
std::uint64_t gf2_mulmod(std::uint64_t a, std::uint64_t b, gf2_poly p) noexcept {
    return gf2_mod(gf2_mul(a, b), p);
}

// uhd-lint: test-reference test_gf2's reference enumerator (reference_is_primitive) takes orders of x with it
std::uint64_t gf2_pow_x(std::uint64_t e, gf2_poly p) noexcept {
    std::uint64_t result = gf2_mod(1u, p); // handles degree-0 moduli gracefully
    std::uint64_t base = gf2_mod(2u, p);   // the polynomial "x"
    while (e != 0) {
        if (e & 1u) result = gf2_mulmod(result, base, p);
        base = gf2_mulmod(base, base, p);
        e >>= 1;
    }
    return result;
}

std::vector<std::uint64_t> prime_factors(std::uint64_t n) {
    UHD_REQUIRE(n >= 2, "prime_factors requires n >= 2");
    std::vector<std::uint64_t> factors;
    for (std::uint64_t p = 2; p * p <= n; p += (p == 2 ? 1 : 2)) {
        if (n % p == 0) {
            factors.push_back(p);
            while (n % p == 0) n /= p;
        }
    }
    if (n > 1) factors.push_back(n);
    return factors;
}

namespace {

/// (a * b) mod p for a, b of degree below d = deg(p) >= 2: Horner over b's
/// bits from the top, reducing after every shift, so no intermediate
/// reaches degree d + 1.
std::uint64_t mulmod_reduced(std::uint64_t a, std::uint64_t b, gf2_poly p, int d) noexcept {
    const std::uint64_t top = std::uint64_t{1} << d;
    std::uint64_t r = 0;
    for (int i = d - 1; i >= 0; --i) {
        r <<= 1;
        if ((r & top) != 0) r ^= p;
        if (((b >> i) & 1u) != 0) r ^= a;
    }
    return r;
}

/// The order test for a degree-d polynomial (2 <= d <= 32) with constant
/// term 1, given the prime factors of 2^d - 1: x^(2^d) = x (d squarings;
/// x is invertible mod p, so this is x^(2^d - 1) = 1) and
/// x^((2^d - 1) / q) != 1 for every prime factor q.
bool has_full_order(gf2_poly p, int d, const std::vector<std::uint64_t>& factors) noexcept {
    std::uint64_t x = 2;
    for (int i = 0; i < d; ++i) x = mulmod_reduced(x, x, p, d);
    if (x != 2) return false;
    const std::uint64_t order = (std::uint64_t{1} << d) - 1;
    for (const std::uint64_t q : factors) {
        std::uint64_t result = 1;
        std::uint64_t base = 2;
        for (std::uint64_t e = order / q; e != 0; e >>= 1) {
            if ((e & 1u) != 0) result = mulmod_reduced(result, base, p, d);
            base = mulmod_reduced(base, base, p, d);
        }
        if (result == 1) return false;
    }
    return true;
}

/// Visit the primitive polynomials of `degree` in value order until
/// `take` returns false. The prime factors of 2^d - 1 are computed once
/// for the degree, and even-weight candidates are skipped: x + 1 divides
/// each of them (p(1) = 0), so none of degree >= 2 is irreducible.
template <typename Take>
void for_each_primitive(int degree, Take take) {
    if (degree == 1) {
        take(gf2_poly{0b11}); // x + 1 is the only degree-1 primitive
        return;
    }
    const std::vector<std::uint64_t> factors =
        prime_factors((std::uint64_t{1} << degree) - 1);
    const gf2_poly top = gf2_poly{1} << degree;
    // Interior coefficients enumerate 0 .. 2^(d-1) - 1; constant term is 1.
    const gf2_poly interior_count = gf2_poly{1} << (degree - 1);
    for (gf2_poly interior = 0; interior < interior_count; ++interior) {
        const gf2_poly candidate = top | (interior << 1) | 1u;
        if (std::popcount(candidate) % 2 == 0) continue;
        if (has_full_order(candidate, degree, factors) && !take(candidate)) return;
    }
}

} // namespace

std::vector<gf2_poly> primitive_polynomials(std::size_t count) {
    std::vector<gf2_poly> polys;
    polys.reserve(count);
    for (int degree = 1; degree <= 32 && polys.size() < count; ++degree) {
        for_each_primitive(degree, [&](gf2_poly p) {
            polys.push_back(p);
            return polys.size() < count;
        });
    }
    UHD_REQUIRE(polys.size() == count, "could not enumerate enough primitive polynomials");
    return polys;
}

gf2_poly first_primitive_of_degree(int degree) {
    UHD_REQUIRE(degree >= 1 && degree <= 32, "degree must be in [1, 32]");
    gf2_poly first = 0;
    for_each_primitive(degree, [&](gf2_poly p) {
        first = p;
        return false;
    });
    if (first == 0) {
        throw uhd::error("no primitive polynomial found (unreachable for valid degrees)");
    }
    return first;
}

} // namespace uhd::ld

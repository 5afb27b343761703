// Tests for GF(2) polynomial arithmetic and the primitive-polynomial search
// that replaces the Joe–Kuo direction-number tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "uhd/common/error.hpp"
#include "uhd/lowdisc/gf2.hpp"

namespace {

using namespace uhd::ld;

/// The enumerator as it stood before the fast search: every candidate of
/// every degree, even-weight ones included, through the generic order
/// test, with the prime factors of 2^d - 1 recomputed per candidate and
/// the multiply-then-reduce gf2_pow_x.
bool reference_is_primitive(gf2_poly p) {
    const int d = gf2_degree(p);
    if (d < 1 || d > 32) return false;
    if ((p & 1u) == 0) return false;
    if (d == 1) return p == 0b11;
    const std::uint64_t order = (std::uint64_t{1} << d) - 1;
    if (gf2_pow_x(order, p) != 1u) return false;
    for (const std::uint64_t q : prime_factors(order)) {
        if (gf2_pow_x(order / q, p) == 1u) return false;
    }
    return true;
}

std::vector<gf2_poly> reference_primitive_polynomials(std::size_t count) {
    std::vector<gf2_poly> polys;
    for (int degree = 1; degree <= 32 && polys.size() < count; ++degree) {
        const gf2_poly top = gf2_poly{1} << degree;
        const gf2_poly interior_count = gf2_poly{1} << (degree - 1);
        for (gf2_poly interior = 0; interior < interior_count && polys.size() < count;
             ++interior) {
            const gf2_poly candidate = top | (interior << 1) | 1u;
            if (reference_is_primitive(candidate)) polys.push_back(candidate);
        }
    }
    return polys;
}

TEST(Gf2, Degree) {
    EXPECT_EQ(gf2_degree(0), -1);
    EXPECT_EQ(gf2_degree(1), 0);
    EXPECT_EQ(gf2_degree(0b10), 1);
    EXPECT_EQ(gf2_degree(0b1011), 3);
}

TEST(Gf2, CarrylessMultiply) {
    // (x + 1)(x + 1) = x^2 + 1 over GF(2).
    EXPECT_EQ(gf2_mul(0b11, 0b11), 0b101u);
    // (x^2 + x)(x + 1) = x^3 + x.
    EXPECT_EQ(gf2_mul(0b110, 0b11), 0b1010u);
    EXPECT_EQ(gf2_mul(0, 0b1011), 0u);
}

TEST(Gf2, Modulo) {
    // x^3 mod (x^2 + x + 1): x^3 = (x+1)(x^2+x+1) + 1 -> remainder 1.
    EXPECT_EQ(gf2_mod(0b1000, 0b111), 0b1u);
    EXPECT_EQ(gf2_mod(0b111, 0b111), 0u);
    EXPECT_EQ(gf2_mod(0b10, 0b111), 0b10u);
}

TEST(Gf2, MulModStaysBelowModulus) {
    const gf2_poly p = 0b1011; // x^3 + x + 1
    for (std::uint32_t a = 0; a < 8; ++a) {
        for (std::uint32_t b = 0; b < 8; ++b) {
            EXPECT_LT(gf2_mulmod(a, b, p), 8u);
        }
    }
}

TEST(Gf2, PowXMatchesRepeatedMultiplication) {
    const gf2_poly p = 0b1011;
    std::uint32_t x_power = 1;
    for (std::uint64_t e = 0; e < 14; ++e) {
        EXPECT_EQ(gf2_pow_x(e, p), x_power) << "e=" << e;
        x_power = gf2_mulmod(x_power, 0b10, p);
    }
}

TEST(Gf2, PrimeFactors) {
    EXPECT_EQ(prime_factors(2), (std::vector<std::uint64_t>{2}));
    EXPECT_EQ(prime_factors(12), (std::vector<std::uint64_t>{2, 3}));
    EXPECT_EQ(prime_factors(255), (std::vector<std::uint64_t>{3, 5, 17}));
    EXPECT_EQ(prime_factors(8191), (std::vector<std::uint64_t>{8191})); // Mersenne prime
    EXPECT_THROW((void)prime_factors(1), uhd::error);
}

TEST(Gf2, KnownPrimitivePolynomials) {
    EXPECT_TRUE(is_primitive(0b11));      // x + 1
    EXPECT_TRUE(is_primitive(0b111));     // x^2 + x + 1
    EXPECT_TRUE(is_primitive(0b1011));    // x^3 + x + 1
    EXPECT_TRUE(is_primitive(0b1101));    // x^3 + x^2 + 1
    EXPECT_TRUE(is_primitive(0b10011));   // x^4 + x + 1
    EXPECT_TRUE(is_primitive(0b100101));  // x^5 + x^2 + 1
}

TEST(Gf2, KnownNonPrimitivePolynomials) {
    // x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5 != 15.
    EXPECT_FALSE(is_primitive(0b11111));
    // x^2 + 1 = (x+1)^2 is reducible.
    EXPECT_FALSE(is_primitive(0b101));
    // Even constant term can never be primitive.
    EXPECT_FALSE(is_primitive(0b110));
    // Degree 0 is not primitive.
    EXPECT_FALSE(is_primitive(0b1));
}

TEST(Gf2, PrimitiveCountsPerDegreeMatchTheory) {
    // #primitive polynomials of degree n = phi(2^n - 1) / n.
    const std::vector<std::size_t> expected_by_degree = {1, 1, 2, 2, 6, 6, 18, 16};
    std::size_t total = 0;
    for (const std::size_t c : expected_by_degree) total += c;
    const auto polys = primitive_polynomials(total);
    std::vector<std::size_t> found(expected_by_degree.size(), 0);
    for (const gf2_poly p : polys) {
        const int degree = gf2_degree(p);
        ASSERT_GE(degree, 1);
        ASSERT_LE(degree, static_cast<int>(expected_by_degree.size()));
        ++found[static_cast<std::size_t>(degree - 1)];
    }
    for (std::size_t i = 0; i < expected_by_degree.size(); ++i) {
        EXPECT_EQ(found[i], expected_by_degree[i]) << "degree " << i + 1;
    }
}

TEST(Gf2, EnumerationIsSortedAndUnique) {
    const auto polys = primitive_polynomials(60);
    for (std::size_t i = 1; i < polys.size(); ++i) {
        // Sorted by (degree, value); strict inequality implies uniqueness.
        const int dp = gf2_degree(polys[i - 1]);
        const int dc = gf2_degree(polys[i]);
        EXPECT_TRUE(dp < dc || (dp == dc && polys[i - 1] < polys[i]));
    }
}

TEST(Gf2, EnoughDimensionsForLargestImages) {
    // 32x32 images need 1024 sequences -> 1023 polynomials + van der Corput.
    const auto polys = primitive_polynomials(1023);
    EXPECT_EQ(polys.size(), 1023u);
    for (const gf2_poly p : polys) EXPECT_TRUE(is_primitive(p));
}

TEST(Gf2, FirstPrimitiveOfDegree) {
    EXPECT_EQ(first_primitive_of_degree(1), 0b11u);
    EXPECT_EQ(first_primitive_of_degree(2), 0b111u);
    EXPECT_EQ(first_primitive_of_degree(3), 0b1011u);
    for (int d = 1; d <= 16; ++d) {
        EXPECT_TRUE(is_primitive(first_primitive_of_degree(d))) << "degree " << d;
    }
    EXPECT_THROW((void)first_primitive_of_degree(0), uhd::error);
}

TEST(Gf2, FastEnumerationMatchesReference) {
    // The Sobol direction table rests on this list: 2,000 polynomials reach
    // degree 15, past every image size the benches use.
    EXPECT_EQ(primitive_polynomials(2000), reference_primitive_polynomials(2000));
    // The order test alone, on every candidate of degree <= 12 (odd and
    // even weight) and on each degree's first primitive up to 20.
    for (gf2_poly p = 0; p < (gf2_poly{1} << 13); ++p) {
        ASSERT_EQ(is_primitive(p), reference_is_primitive(p)) << "p=" << p;
    }
    for (int d = 1; d <= 20; ++d) {
        const gf2_poly top = gf2_poly{1} << d;
        gf2_poly first = 0;
        for (gf2_poly candidate = top | 1u; first == 0; candidate += 2) {
            if (reference_is_primitive(candidate)) first = candidate;
        }
        EXPECT_EQ(first_primitive_of_degree(d), first) << "degree " << d;
    }
}

} // namespace

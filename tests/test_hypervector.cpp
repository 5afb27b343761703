// Tests for hypervectors, accumulators, and similarity.
#include <gtest/gtest.h>

#include "uhd/common/error.hpp"
#include "uhd/hdc/accumulator.hpp"
#include "uhd/hdc/hypervector.hpp"
#include "uhd/hdc/similarity.hpp"

namespace {

using namespace uhd::hdc;

/// Element i of v as +1 or -1 (bit 1 = -1).
int element(const hypervector& v, std::size_t i) { return v.bits().bit(i) ? -1 : +1; }

/// Element-wise negation.
hypervector negated(const hypervector& v) { return hypervector(~v.bits()); }

TEST(Hypervector, DefaultElementsArePlusOne) {
    const hypervector v(64);
    for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(element(v, i), +1);
    EXPECT_EQ(v.count_negative(), 0u);
}

TEST(Hypervector, RandomIsBalancedAndDeterministic) {
    uhd::xoshiro256ss rng_a(5);
    uhd::xoshiro256ss rng_b(5);
    const hypervector a = hypervector::random(4096, rng_a);
    const hypervector b = hypervector::random(4096, rng_b);
    EXPECT_EQ(a, b);
    // Balanced within 4 sigma: |#neg - D/2| < 4 * sqrt(D)/2.
    const double deviation =
        std::abs(static_cast<double>(a.count_negative()) - 2048.0);
    EXPECT_LT(deviation, 128.0);
}

TEST(Hypervector, DotIdentities) {
    uhd::xoshiro256ss rng(6);
    const hypervector a = hypervector::random(1024, rng);
    EXPECT_EQ(a.dot(a), 1024);
    EXPECT_EQ(a.dot(negated(a)), -1024);
    const hypervector b = hypervector::random(1024, rng);
    // Random hypervectors are nearly orthogonal: |dot| < 5 sqrt(D).
    EXPECT_LT(std::abs(a.dot(b)), 160);
    EXPECT_EQ(a.dot(b), b.dot(a));
}

TEST(Hypervector, DotDimensionMismatchThrows) {
    EXPECT_THROW((void)hypervector(8).dot(hypervector(9)), uhd::error);
}

TEST(Accumulator, AddAndSign) {
    accumulator acc(4);
    hypervector v(4);
    v.bits().set_bit(1, true); // element 1 = -1
    acc.add_sign_words(v.bits().words());
    acc.add_sign_words(v.bits().words());
    hypervector w(4);
    w.bits().set_bit(2, true);
    acc.add_sign_words(w.bits().words());
    EXPECT_EQ(acc.values()[0], 3);
    EXPECT_EQ(acc.values()[1], -1);
    EXPECT_EQ(acc.values()[2], 1);
    const hypervector s = acc.sign();
    EXPECT_EQ(element(s, 0), +1);
    EXPECT_EQ(element(s, 1), -1);
    EXPECT_EQ(element(s, 2), +1);
}

TEST(Accumulator, SignTiesGoPositive) {
    accumulator acc(2);
    EXPECT_EQ(element(acc.sign(), 0), +1); // zero accumulator -> +1
}

TEST(Accumulator, AddAndSubtractValues) {
    accumulator acc(3);
    const std::vector<std::int32_t> raw = {5, -2, 0};
    acc.add_values(raw);
    acc.add_values(raw);
    EXPECT_EQ(acc.values()[0], 10);
    acc.subtract_values(raw);
    EXPECT_EQ(acc.values()[0], 5);
    EXPECT_THROW(acc.add_values(std::vector<std::int32_t>{1}), uhd::error);
}

TEST(Accumulator, DimensionMismatchThrows) {
    accumulator acc(8);
    EXPECT_THROW(acc.add_sign_words(hypervector(65).bits().words()), uhd::error);
    EXPECT_THROW(acc.add(accumulator(9)), uhd::error);
}

TEST(Similarity, CosineOfBinarizedVectors) {
    uhd::xoshiro256ss rng(12);
    const hypervector a = hypervector::random(2048, rng);
    EXPECT_DOUBLE_EQ(cosine(a, a), 1.0);
    EXPECT_DOUBLE_EQ(cosine(a, negated(a)), -1.0);
    const hypervector b = hypervector::random(2048, rng);
    EXPECT_LT(std::abs(cosine(a, b)), 0.1);
}

TEST(Similarity, CosineOfIntegerVectors) {
    const std::vector<std::int32_t> a = {1, 2, 3};
    const std::vector<std::int32_t> b = {2, 4, 6};
    const std::vector<std::int32_t> c = {-1, -2, -3};
    EXPECT_NEAR(cosine(std::span<const std::int32_t>(a), b), 1.0, 1e-12);
    EXPECT_NEAR(cosine(std::span<const std::int32_t>(a), c), -1.0, 1e-12);
    const std::vector<std::int32_t> zero = {0, 0, 0};
    EXPECT_DOUBLE_EQ(cosine(std::span<const std::int32_t>(a), zero), 0.0);
}

TEST(Similarity, MixedQueryClassCosine) {
    hypervector q(4); // all +1
    const std::vector<std::int32_t> cls = {3, 3, 3, 3};
    EXPECT_NEAR(cosine(q, cls), 1.0, 1e-12);
    q.bits().set_bit(0, true); // element 0 = -1
    EXPECT_LT(cosine(q, cls), 1.0);
}

} // namespace

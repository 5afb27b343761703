// Tests for the alternative LD sequences (van der Corput, Halton, R2) and
// the LFSR pseudo-random substrate of the baseline.
#include <gtest/gtest.h>

#include <set>

#include "uhd/common/error.hpp"
#include "uhd/lowdisc/halton.hpp"
#include "uhd/lowdisc/lfsr.hpp"

namespace {

using namespace uhd::ld;

TEST(RadicalInverse, Base2KnownValues) {
    EXPECT_DOUBLE_EQ(radical_inverse(0, 2), 0.0);
    EXPECT_DOUBLE_EQ(radical_inverse(1, 2), 0.5);
    EXPECT_DOUBLE_EQ(radical_inverse(2, 2), 0.25);
    EXPECT_DOUBLE_EQ(radical_inverse(3, 2), 0.75);
    EXPECT_DOUBLE_EQ(radical_inverse(4, 2), 0.125);
    EXPECT_DOUBLE_EQ(radical_inverse(5, 2), 0.625);
    EXPECT_DOUBLE_EQ(radical_inverse(6, 2), 0.375);
}

TEST(RadicalInverse, Base3KnownValues) {
    EXPECT_DOUBLE_EQ(radical_inverse(1, 3), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(radical_inverse(2, 3), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(radical_inverse(3, 3), 1.0 / 9.0);
}

TEST(RadicalInverse, InvalidBaseThrows) {
    EXPECT_THROW((void)radical_inverse(1, 1), uhd::error);
}

TEST(VanDerCorput, MatchesPaperSequenceIntro) {
    // Paper Fig. 2: "0, 1/2, 1/4, 3/4, 1/8, 5/8, 3/8, ..."
    const auto points = van_der_corput(7);
    const double expected[] = {0.0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375};
    for (int i = 0; i < 7; ++i) EXPECT_DOUBLE_EQ(points[i], expected[i]);
}

TEST(NthPrime, FirstPrimes) {
    EXPECT_EQ(nth_prime(1), 2u);
    EXPECT_EQ(nth_prime(2), 3u);
    EXPECT_EQ(nth_prime(5), 11u);
    EXPECT_EQ(nth_prime(10), 29u);
}

TEST(Halton, DimensionsUseSuccessivePrimes) {
    const halton_sequence seq(3);
    EXPECT_DOUBLE_EQ(seq.at(1, 0), 0.5);       // base 2
    EXPECT_DOUBLE_EQ(seq.at(1, 1), 1.0 / 3.0); // base 3
    EXPECT_DOUBLE_EQ(seq.at(1, 2), 0.2);       // base 5
    EXPECT_THROW((void)seq.at(0, 3), uhd::error);
}

TEST(Halton, PointsInUnitInterval) {
    const halton_sequence seq(4);
    for (std::size_t d = 0; d < 4; ++d) {
        for (std::uint64_t i = 0; i < 500; ++i) {
            EXPECT_GE(seq.at(i, d), 0.0);
            EXPECT_LT(seq.at(i, d), 1.0);
        }
    }
}

TEST(R2Sequence, DeterministicAndInRange) {
    const r2_sequence seq(8);
    for (std::size_t d = 0; d < 8; ++d) {
        for (std::uint64_t i = 0; i < 500; ++i) {
            EXPECT_GE(seq.at(i, d), 0.0);
            EXPECT_LT(seq.at(i, d), 1.0);
        }
        EXPECT_DOUBLE_EQ(seq.at(3, d), seq.at(3, d));
    }
}

TEST(R2Sequence, OneDimensionUsesGoldenRatio) {
    const r2_sequence seq(1);
    // alpha_1 = 1/phi where phi is the golden ratio.
    EXPECT_NEAR(seq.at(0, 0), 0.6180339887, 1e-9);
}

TEST(Lfsr, RejectsBadConfig) {
    EXPECT_THROW(lfsr(2, 1), uhd::error);
    EXPECT_THROW(lfsr(33, 1), uhd::error);
    EXPECT_THROW(lfsr(8, 0), uhd::error);
    EXPECT_THROW((void)maximal_taps(2), uhd::error);
}

class LfsrPeriods : public ::testing::TestWithParam<unsigned> {};

TEST_P(LfsrPeriods, FibonacciIsMaximalLength) {
    const unsigned width = GetParam();
    lfsr reg(width, 1, lfsr_kind::fibonacci);
    const std::uint64_t period = (std::uint64_t{1} << width) - 1;
    const std::uint32_t start = reg.state();
    std::uint64_t steps = 0;
    do {
        (void)reg.step();
        ++steps;
        ASSERT_NE(reg.state(), 0u);
        ASSERT_LE(steps, period);
    } while (reg.state() != start);
    EXPECT_EQ(steps, period);
}

TEST_P(LfsrPeriods, GaloisIsMaximalLength) {
    const unsigned width = GetParam();
    lfsr reg(width, 1, lfsr_kind::galois);
    const std::uint64_t period = (std::uint64_t{1} << width) - 1;
    const std::uint32_t start = reg.state();
    std::uint64_t steps = 0;
    do {
        (void)reg.step();
        ++steps;
        ASSERT_NE(reg.state(), 0u);
        ASSERT_LE(steps, period);
    } while (reg.state() != start);
    EXPECT_EQ(steps, period);
}

INSTANTIATE_TEST_SUITE_P(Widths, LfsrPeriods, ::testing::Values(3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16));

TEST(Lfsr, NextBitsPacksLsbFirst) {
    lfsr a(8, 0x5A);
    lfsr b(8, 0x5A);
    std::uint32_t expected = 0;
    for (unsigned i = 0; i < 8; ++i) {
        expected |= static_cast<std::uint32_t>(a.step()) << i;
    }
    EXPECT_EQ(b.next_bits(8), expected);
}

TEST(Lfsr, NextUnitInUnitInterval) {
    lfsr reg(16, 0xACE1);
    for (int i = 0; i < 1000; ++i) {
        const double u = reg.next_unit();
        EXPECT_GT(u, 0.0); // state never hits zero
        EXPECT_LT(u, 1.0);
    }
}

TEST(Lfsr, BitBalanceNearHalf) {
    lfsr reg(16, 1);
    std::size_t ones = 0;
    const std::size_t n = 65535;
    for (std::size_t i = 0; i < n; ++i) ones += reg.step();
    // Maximal-length sequence: 32768 ones vs 32767 zeros per period.
    EXPECT_EQ(ones, 32768u);
}

TEST(Lfsr, AllWidthsConstructible) {
    for (unsigned w = 3; w <= 32; ++w) {
        lfsr fib(w, 1, lfsr_kind::fibonacci);
        lfsr gal(w, 1, lfsr_kind::galois);
        EXPECT_LT(fib.state(), std::uint64_t{1} << w); // a w-bit register
        (void)fib.step();
        (void)gal.step();
    }
}

} // namespace

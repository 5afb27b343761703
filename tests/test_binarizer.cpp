// Tests for the concurrent popcount binarizer (paper Fig. 5 masking logic).
#include <gtest/gtest.h>

#include "uhd/common/error.hpp"
#include "uhd/core/binarizer.hpp"

namespace {

using uhd::core::popcount_binarizer;

/// Ones fed before the sign latches: the binarizer's TOB.
std::size_t ones_to_latch(popcount_binarizer bin, std::size_t h) {
    for (std::size_t ones = 1; ones <= h; ++ones) {
        bin.feed(true);
        if (bin.sign_bit()) return ones;
    }
    return h + 1;
}

TEST(Binarizer, DefaultThresholdIsCeilHalf) {
    EXPECT_EQ(ones_to_latch(popcount_binarizer(784), 784), 392u);
    EXPECT_EQ(ones_to_latch(popcount_binarizer(785), 785), 393u);
    EXPECT_EQ(ones_to_latch(popcount_binarizer(1), 1), 1u);
}

TEST(Binarizer, SignLatchesAtThreshold) {
    popcount_binarizer bin(8); // TOB = 4
    for (int i = 0; i < 3; ++i) bin.feed(true);
    EXPECT_FALSE(bin.sign_bit());
    bin.feed(true); // 4th one reaches TOB
    EXPECT_TRUE(bin.sign_bit());
    // Latched: further zeros don't clear the sign.
    for (int i = 0; i < 4; ++i) bin.feed(false);
    EXPECT_TRUE(bin.sign_bit());
    // All 8 inputs consumed.
    EXPECT_THROW(bin.feed(false), uhd::error);
}

TEST(Binarizer, ZerosNeverLatch) {
    popcount_binarizer bin(6);
    for (int i = 0; i < 6; ++i) bin.feed(false);
    EXPECT_FALSE(bin.sign_bit());
}

TEST(Binarizer, OverfeedThrows) {
    popcount_binarizer bin(2);
    bin.feed(true);
    bin.feed(false);
    EXPECT_THROW(bin.feed(true), uhd::error);
}

TEST(Binarizer, SignIsOnesAtLeastCeilHalf) {
    for (const std::size_t h : {7u, 8u, 784u}) {
        for (std::size_t ones = 0; ones <= h; ++ones) {
            popcount_binarizer bin(h);
            for (std::size_t i = 0; i < h; ++i) bin.feed(i < ones);
            EXPECT_EQ(bin.sign_bit(), ones >= (h + 1) / 2)
                << "h=" << h << " ones=" << ones;
        }
    }
}

TEST(Binarizer, ExplicitThresholdVariant) {
    popcount_binarizer bin(10, 7);
    for (int i = 0; i < 6; ++i) bin.feed(true);
    EXPECT_FALSE(bin.sign_bit());
    bin.feed(true);
    EXPECT_TRUE(bin.sign_bit());
    EXPECT_THROW(popcount_binarizer(10, 0), uhd::error);
    EXPECT_THROW(popcount_binarizer(10, 12), uhd::error);
}

TEST(Binarizer, TieGoesPositiveForEvenH) {
    // H = 8, exactly 4 ones: count == TOB -> +1 (sign bit set), matching
    // accumulator::sign()'s ties-to-+1 rule.
    popcount_binarizer bin(8);
    for (int i = 0; i < 8; ++i) bin.feed(i % 2 == 0);
    EXPECT_TRUE(bin.sign_bit());
}

} // namespace

// Tests for the concurrent popcount binarizer (paper Fig. 5 masking logic).
#include <gtest/gtest.h>

#include "uhd/common/error.hpp"
#include "uhd/core/binarizer.hpp"

namespace {

using uhd::core::popcount_binarizer;

TEST(Binarizer, DefaultThresholdIsCeilHalf) {
    EXPECT_EQ(popcount_binarizer(784).threshold(), 392u);
    EXPECT_EQ(popcount_binarizer(785).threshold(), 393u);
    EXPECT_EQ(popcount_binarizer(1).threshold(), 1u);
}

TEST(Binarizer, CounterBitsCoverInputCount) {
    EXPECT_EQ(popcount_binarizer(784).counter_bits(), 10u);
    EXPECT_EQ(popcount_binarizer(1024).counter_bits(), 11u);
    EXPECT_EQ(popcount_binarizer(1).counter_bits(), 1u);
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
    EXPECT_EQ(bin.count(), 4u);
    EXPECT_EQ(bin.consumed(), 8u);
}

TEST(Binarizer, ZerosNeverLatch) {
    popcount_binarizer bin(6);
    for (int i = 0; i < 6; ++i) bin.feed(false);
    EXPECT_FALSE(bin.sign_bit());
    EXPECT_EQ(bin.count(), 0u);
}

TEST(Binarizer, OverfeedThrows) {
    popcount_binarizer bin(2);
    bin.feed(true);
    bin.feed(false);
    EXPECT_THROW(bin.feed(true), uhd::error);
}

TEST(Binarizer, DecideMatchesFeedSemantics) {
    for (const std::size_t h : {7u, 8u, 784u}) {
        popcount_binarizer reference(h);
        for (std::size_t ones = 0; ones <= h; ++ones) {
            popcount_binarizer bin(h);
            for (std::size_t i = 0; i < h; ++i) bin.feed(i < ones);
            EXPECT_EQ(bin.sign_bit(), reference.decide(ones))
                << "h=" << h << " ones=" << ones;
        }
    }
}

TEST(Binarizer, ExplicitThresholdVariant) {
    popcount_binarizer bin(10, 7);
    EXPECT_EQ(bin.threshold(), 7u);
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

TEST(Binarizer, MaskEncodesThreshold) {
    const popcount_binarizer bin(784);
    EXPECT_EQ(bin.mask(), 392u);
    EXPECT_EQ(bin.inputs(), 784u);
}

} // namespace

// Unit tests for the packed bit-stream container.
#include <gtest/gtest.h>

#include "uhd/bitstream/bitstream.hpp"
#include "uhd/common/error.hpp"

namespace {

using uhd::bs::bitstream;

TEST(Bitstream, DefaultIsEmpty) {
    bitstream s;
    EXPECT_EQ(s.size(), 0u);
    EXPECT_TRUE(s.all()); // vacuous
    EXPECT_EQ(s.popcount(), 0u);
}

TEST(Bitstream, FillConstructor) {
    bitstream zeros(100, false);
    EXPECT_EQ(zeros.popcount(), 0u);
    bitstream ones(100, true);
    EXPECT_EQ(ones.popcount(), 100u);
    EXPECT_TRUE(ones.all());
}

TEST(Bitstream, SetAndGetBits) {
    bitstream s(130);
    s.set_bit(0, true);
    s.set_bit(64, true);
    s.set_bit(129, true);
    EXPECT_TRUE(s.bit(0));
    EXPECT_TRUE(s.bit(64));
    EXPECT_TRUE(s.bit(129));
    EXPECT_FALSE(s.bit(1));
    EXPECT_EQ(s.popcount(), 3u);
    s.set_bit(64, false);
    EXPECT_EQ(s.popcount(), 2u);
}

TEST(Bitstream, OutOfRangeThrows) {
    bitstream s(10);
    EXPECT_THROW((void)s.bit(10), uhd::error);
    EXPECT_THROW(s.set_bit(10, true), uhd::error);
}

TEST(Bitstream, FromToString) {
    const bitstream s = bitstream::from_string("0011010");
    EXPECT_EQ(s.size(), 7u);
    EXPECT_EQ(s.popcount(), 3u);
    EXPECT_EQ(s.to_string(), "0011010");
}

TEST(Bitstream, FromStringRejectsGarbage) {
    EXPECT_THROW((void)bitstream::from_string("01x"), uhd::error);
}

TEST(Bitstream, LogicOps) {
    const bitstream a = bitstream::from_string("1100");
    const bitstream b = bitstream::from_string("1010");
    EXPECT_EQ((a & b).to_string(), "1000");
    EXPECT_EQ((a | b).to_string(), "1110");
    EXPECT_EQ((~a).to_string(), "0011");
}

TEST(Bitstream, LengthMismatchThrows) {
    bitstream a(4);
    bitstream b(5);
    EXPECT_THROW((void)(a & b), uhd::error);
    EXPECT_THROW((void)(a | b), uhd::error);
}

TEST(Bitstream, NotKeepsTailZero) {
    // Inverting must not set bits beyond size() in the last word.
    bitstream s(70);
    const bitstream inverted = ~s;
    EXPECT_EQ(inverted.popcount(), 70u);
    EXPECT_TRUE(inverted.all());
    const auto words = inverted.words();
    EXPECT_EQ(words[1] >> 6, 0u); // bits 70..127 must stay zero
}

TEST(Bitstream, MaskTailAfterWordWrite) {
    bitstream s(10);
    s.mutable_words()[0] = ~std::uint64_t{0};
    s.mask_tail();
    EXPECT_EQ(s.popcount(), 10u);
}

TEST(Bitstream, HammingDistance) {
    const bitstream a = bitstream::from_string("110010");
    const bitstream b = bitstream::from_string("101010");
    EXPECT_EQ(hamming_distance(a, b), 2u);
    EXPECT_EQ(hamming_distance(a, a), 0u);
}

TEST(Bitstream, EqualityIsValueBased) {
    EXPECT_EQ(bitstream::from_string("101"), bitstream::from_string("101"));
    EXPECT_NE(bitstream::from_string("101"), bitstream::from_string("100"));
}

class BitstreamWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitstreamWidths, PopcountMatchesBitLoop) {
    const std::size_t n = GetParam();
    bitstream s(n);
    std::size_t expected = 0;
    for (std::size_t i = 0; i < n; i += 3) {
        s.set_bit(i, true);
        ++expected;
    }
    EXPECT_EQ(s.popcount(), expected);
    EXPECT_EQ((~s).popcount(), n - expected);
}

INSTANTIATE_TEST_SUITE_P(VariousWidths, BitstreamWidths,
                         ::testing::Values(1, 7, 63, 64, 65, 127, 128, 1000, 1024));

} // namespace

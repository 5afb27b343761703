// Tests for thermometer coding, the min/max AND/OR laws, and the paper's
// Fig. 4 unary comparator (exhaustive over all operand pairs).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "uhd/bitstream/stream_table.hpp"
#include "uhd/bitstream/unary.hpp"
#include "uhd/common/error.hpp"

namespace {

using namespace uhd::bs;

TEST(Unary, EncodeTrailingMatchesPaperExample) {
    // Paper Section II: X1 -> 0000011 (value 2), X2 -> 0011111 (value 5).
    EXPECT_EQ(unary_encode(2, 7).to_string(), "0000011");
    EXPECT_EQ(unary_encode(5, 7).to_string(), "0011111");
}

TEST(Unary, EncodeLeading) {
    EXPECT_EQ(unary_encode(3, 7, unary_alignment::ones_leading).to_string(), "1110000");
}

TEST(Unary, EncodeBounds) {
    EXPECT_EQ(unary_encode(0, 5).popcount(), 0u);
    EXPECT_EQ(unary_encode(5, 5).popcount(), 5u);
    EXPECT_THROW((void)unary_encode(6, 5), uhd::error);
}

TEST(Unary, IsUnaryDetectsValidCodes) {
    EXPECT_TRUE(is_unary(bitstream::from_string("0011")));
    EXPECT_TRUE(is_unary(bitstream::from_string("0000")));
    EXPECT_TRUE(is_unary(bitstream::from_string("1111")));
    EXPECT_FALSE(is_unary(bitstream::from_string("0101")));
    EXPECT_FALSE(is_unary(bitstream::from_string("1001")));
    EXPECT_TRUE(is_unary(bitstream::from_string("1100"), unary_alignment::ones_leading));
    EXPECT_FALSE(is_unary(bitstream::from_string("0011"), unary_alignment::ones_leading));
}

TEST(Unary, DecodeRejectsNonThermometer) {
    EXPECT_THROW((void)unary_decode(bitstream::from_string("0101")), uhd::error);
}

// Exhaustive property tests over all (a, b) pairs for a given stream length:
// AND is min and OR is max (the algebra the Fig. 4 comparator rests on),
// and the comparator is (a >= b).
class UnaryPairs : public ::testing::TestWithParam<std::size_t> {};

TEST_P(UnaryPairs, AndIsMinimum) {
    const std::size_t n = GetParam();
    for (std::size_t a = 0; a <= n; ++a) {
        for (std::size_t b = 0; b <= n; ++b) {
            const bitstream sa = unary_encode(a, n);
            const bitstream sb = unary_encode(b, n);
            EXPECT_EQ(unary_decode(sa & sb), std::min(a, b));
        }
    }
}

TEST_P(UnaryPairs, OrIsMaximum) {
    const std::size_t n = GetParam();
    for (std::size_t a = 0; a <= n; ++a) {
        for (std::size_t b = 0; b <= n; ++b) {
            const bitstream sa = unary_encode(a, n);
            const bitstream sb = unary_encode(b, n);
            EXPECT_EQ(unary_decode(sa | sb), std::max(a, b));
        }
    }
}

TEST_P(UnaryPairs, ComparatorMatchesGreaterEqual) {
    const std::size_t n = GetParam();
    for (std::size_t a = 0; a <= n; ++a) {
        for (std::size_t b = 0; b <= n; ++b) {
            const bool geq = unary_compare_geq(unary_encode(a, n), unary_encode(b, n));
            EXPECT_EQ(geq, a >= b) << "a=" << a << " b=" << b << " n=" << n;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(StreamLengths, UnaryPairs,
                         ::testing::Values(2, 3, 7, 8, 15, 16, 31));

TEST(UnaryComparator, PaperFig4WorkedExample) {
    // The paper compares data = 2 against Sobol = 5 on 7-bit streams and
    // expects logic-0 (2 >= 5 is false).
    const bitstream data = bitstream::from_string("0000011");
    const bitstream sobol = bitstream::from_string("0011111");
    EXPECT_FALSE(unary_compare_geq(data, sobol));
    EXPECT_TRUE(unary_compare_geq(sobol, data));
    // The intermediate minimum must be the smaller stream.
    EXPECT_EQ(data & sobol, data);
}

TEST(UnaryComparator, LengthMismatchThrows) {
    EXPECT_THROW((void)unary_compare_geq(unary_encode(1, 4), unary_encode(1, 5)),
                 uhd::error);
}

TEST(StreamTable, HoldsAllLevels) {
    const unary_stream_table ust(16, 16);
    for (std::size_t q = 0; q < 16; ++q) {
        EXPECT_EQ(ust.fetch(q).size(), 16u);
        EXPECT_EQ(unary_decode(ust.fetch(q)), q); // ones-trailing, as in Fig. 4
    }
}

TEST(StreamTable, FetchOutOfRangeThrows) {
    const unary_stream_table ust(16, 16);
    EXPECT_THROW((void)ust.fetch(16), uhd::error);
}

TEST(StreamTable, RejectsImpossibleGeometry) {
    EXPECT_THROW(unary_stream_table(20, 16), uhd::error); // 19 ones into 16 bits
}

TEST(StreamTable, FetchedStreamsCompareLikeValues) {
    const unary_stream_table ust(16, 16);
    for (std::size_t a = 0; a < 16; ++a) {
        for (std::size_t b = 0; b < 16; ++b) {
            EXPECT_EQ(unary_compare_geq(ust.fetch(a), ust.fetch(b)), a >= b);
        }
    }
}

// --- word-level rewrite vs bit-at-a-time references -----------------------
//
// unary_encode and unary_compare_geq run word-level on the packed storage,
// and so do bitstream's & and |, the comparator's min and max. These
// references restate the original per-bit formulations; the production ops
// must match them bit-for-bit on lengths that straddle 64-bit word
// boundaries (the cases a single-word test like UnaryPairs can never
// catch).

bitstream reference_encode(std::size_t value, std::size_t length,
                           unary_alignment align) {
    bitstream out(length);
    if (align == unary_alignment::ones_leading) {
        for (std::size_t i = 0; i < value; ++i) out.set_bit(i, true);
    } else {
        for (std::size_t i = 0; i < value; ++i) out.set_bit(length - 1 - i, true);
    }
    return out;
}

bitstream reference_combine(const bitstream& a, const bitstream& b, bool min) {
    bitstream out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        out.set_bit(i, min ? (a.bit(i) && b.bit(i)) : (a.bit(i) || b.bit(i)));
    }
    return out;
}

bool reference_compare_geq(const bitstream& a, const bitstream& b) {
    // The literal Fig. 4 gate sequence with materialized intermediates.
    const bitstream minimum = a & b;
    const bitstream check = minimum | ~b;
    return check.all();
}

const std::size_t kBoundaryLengths[] = {1,  2,   63,  64,  65,  127,
                                        128, 129, 190, 192, 200};

TEST(UnaryWordLevel, EncodeMatchesPerBitReferenceAcrossWordBoundaries) {
    for (const std::size_t n : kBoundaryLengths) {
        for (const auto align :
             {unary_alignment::ones_leading, unary_alignment::ones_trailing}) {
            // Every value, including the all-zeros and all-ones runs and
            // the values that land a run boundary exactly on a word edge.
            for (std::size_t v = 0; v <= n; ++v) {
                const bitstream got = unary_encode(v, n, align);
                ASSERT_EQ(got, reference_encode(v, n, align))
                    << "n=" << n << " v=" << v
                    << " leading=" << (align == unary_alignment::ones_leading);
                ASSERT_TRUE(is_unary(got, align));
                ASSERT_EQ(got.popcount(), v);
            }
        }
    }
}

TEST(UnaryWordLevel, MinMaxCompareMatchPerBitReferencesAcrossWordBoundaries) {
    for (const std::size_t n : kBoundaryLengths) {
        // Values around the word edges plus the extremes; quadratic over
        // the full range would be wasteful at n=200.
        std::vector<std::size_t> values{0, 1, n / 2, n - 1, n};
        for (const std::size_t edge : {std::size_t{63}, std::size_t{64},
                                       std::size_t{65}, std::size_t{128}}) {
            if (edge <= n) values.push_back(edge);
        }
        for (const std::size_t va : values) {
            for (const std::size_t vb : values) {
                const bitstream a = unary_encode(va, n);
                const bitstream b = unary_encode(vb, n);
                ASSERT_EQ(a & b, reference_combine(a, b, true))
                    << "n=" << n << " a=" << va << " b=" << vb;
                ASSERT_EQ(a | b, reference_combine(a, b, false))
                    << "n=" << n << " a=" << va << " b=" << vb;
                ASSERT_EQ(unary_compare_geq(a, b), reference_compare_geq(a, b))
                    << "n=" << n << " a=" << va << " b=" << vb;
                ASSERT_EQ(unary_compare_geq(a, b), va >= vb);
            }
        }
    }
}

TEST(UnaryWordLevel, ComparatorMatchesGateReferenceOnNonThermometerInputs) {
    // unary_compare_geq documents thermometer inputs, but the word-level
    // fold must stay equivalent to the literal gate network for arbitrary
    // bit patterns too (the gates don't know the input is a valid code).
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    const auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (const std::size_t n : kBoundaryLengths) {
        for (int trial = 0; trial < 40; ++trial) {
            bitstream a(n);
            bitstream b(n);
            for (std::size_t i = 0; i < n; ++i) {
                a.set_bit(i, (next() & 1) != 0);
                b.set_bit(i, (next() & 1) != 0);
            }
            ASSERT_EQ(unary_compare_geq(a, b), reference_compare_geq(a, b))
                << "n=" << n << " trial=" << trial;
        }
    }
}

} // namespace

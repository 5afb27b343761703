// Tests for the Sobol generator: van der Corput base dimension, Gray-code
// sequencing, power-of-two prefix equidistribution (the property uHD's
// intensity coding relies on), quantization (checked against the paper's
// Fig. 3(a) worked example), and the quantized bank.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "uhd/common/error.hpp"
#include "uhd/lowdisc/discrepancy.hpp"
#include "uhd/lowdisc/halton.hpp"
#include "uhd/lowdisc/sobol.hpp"

namespace {

using namespace uhd::ld;

/// Next point of `seq` as a double in [0, 1).
double next_unit(sobol_sequence& seq) {
    return sobol_sequence::fraction_to_unit(seq.next_fraction());
}

TEST(SobolDirections, Deterministic) {
    const auto a = sobol_directions::standard(16);
    const auto b = sobol_directions::standard(16);
    for (std::size_t d = 0; d < 16; ++d) {
        const auto va = a.direction_numbers(d);
        const auto vb = b.direction_numbers(d);
        for (int i = 0; i < sobol_bits; ++i) EXPECT_EQ(va[i], vb[i]);
    }
}

TEST(SobolDirections, DimensionZeroIsVanDerCorput) {
    const auto table = sobol_directions::standard(2);
    const auto v = table.direction_numbers(0);
    for (int i = 0; i < sobol_bits; ++i) {
        EXPECT_EQ(v[i], std::uint32_t{1} << (sobol_bits - 1 - i));
    }
    EXPECT_EQ(table.params(0).polynomial, 0u);
}

TEST(SobolDirections, PolynomialsArePrimitiveAndDistinct) {
    const auto table = sobol_directions::standard(64);
    // Dimension d takes the d-th primitive polynomial of the search that
    // test_gf2 checks against its reference enumerator.
    const auto primitive = primitive_polynomials(63);
    std::vector<gf2_poly> polys;
    for (std::size_t d = 1; d < 64; ++d) {
        const auto& params = table.params(d);
        EXPECT_EQ(params.polynomial, primitive[d - 1]) << "dim " << d;
        polys.push_back(params.polynomial);
        // m_k constraints: odd and < 2^k.
        for (std::size_t k = 0; k < params.initial_m.size(); ++k) {
            EXPECT_EQ(params.initial_m[k] % 2, 1u);
            EXPECT_LT(params.initial_m[k], std::uint32_t{1} << (k + 1));
        }
    }
    std::sort(polys.begin(), polys.end());
    EXPECT_EQ(std::adjacent_find(polys.begin(), polys.end()), polys.end());
}

TEST(SobolDirections, OutOfRangeThrows) {
    const auto table = sobol_directions::standard(4);
    EXPECT_THROW((void)table.direction_numbers(4), uhd::error);
    EXPECT_THROW((void)table.params(4), uhd::error);
}

TEST(SobolSequence, FirstPointsOfVdcDimension) {
    const auto table = sobol_directions::standard(1);
    sobol_sequence seq(table.direction_numbers(0));
    // Gray-code order of the base-2 radical inverse: 0, 1/2, 3/4, 1/4, ...
    EXPECT_DOUBLE_EQ(next_unit(seq), 0.0);
    EXPECT_DOUBLE_EQ(next_unit(seq), 0.5);
    EXPECT_DOUBLE_EQ(next_unit(seq), 0.75);
    EXPECT_DOUBLE_EQ(next_unit(seq), 0.25);
    EXPECT_DOUBLE_EQ(next_unit(seq), 0.375);
}

TEST(SobolSequence, PowerOfTwoPrefixIsExactlyEquidistributed) {
    // Any 2^k-prefix of any Sobol dimension hits every dyadic interval
    // [i/2^k, (i+1)/2^k) exactly once — this is what bounds the level-
    // hypervector coding error.
    const auto table = sobol_directions::standard(8);
    for (std::size_t dim = 0; dim < 8; ++dim) {
        sobol_sequence seq(table.direction_numbers(dim));
        const std::size_t k = 256;
        std::vector<int> buckets(k, 0);
        for (std::size_t i = 0; i < k; ++i) {
            ++buckets[static_cast<std::size_t>(next_unit(seq) * static_cast<double>(k))];
        }
        for (const int count : buckets) EXPECT_EQ(count, 1) << "dim " << dim;
    }
}

TEST(SobolSequence, SortedPrefixMatchesVdcSet) {
    // The 2^k-prefix of the VdC dimension is {i / 2^k} as a set.
    const auto table = sobol_directions::standard(1);
    sobol_sequence seq(table.direction_numbers(0));
    std::vector<double> points;
    for (int i = 0; i < 64; ++i) points.push_back(next_unit(seq));
    std::sort(points.begin(), points.end());
    for (int i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(points[i], i / 64.0);
}

TEST(SobolSequence, LowDiscrepancyBeatsRandomRate) {
    const auto table = sobol_directions::standard(4);
    for (std::size_t dim = 0; dim < 4; ++dim) {
        const auto points = sobol_points(table, dim, 1024);
        // LD sequences: D* = O(log n / n); allow a generous constant.
        EXPECT_LT(star_discrepancy(points), 0.02) << "dim " << dim;
    }
}

TEST(SobolSequence, CrossDimensionCorrelationIsSmall) {
    const auto table = sobol_directions::standard(16);
    const auto base = sobol_points(table, 3, 1024);
    for (std::size_t dim = 4; dim < 16; ++dim) {
        const auto other = sobol_points(table, dim, 1024);
        EXPECT_LT(std::abs(sequence_correlation(base, other)), 0.25) << "dim " << dim;
    }
}

TEST(Quantize, MatchesPaperFig3Example) {
    // Fig. 3(a): xi = 16, scalar -> round(S * 15).
    EXPECT_EQ(quantize_unit(0.671875, 16), 10);
    EXPECT_EQ(quantize_unit(0.359375, 16), 5);
    EXPECT_EQ(quantize_unit(0.859375, 16), 13);
    EXPECT_EQ(quantize_unit(0.609375, 16), 9);
    EXPECT_EQ(quantize_unit(0.109375, 16), 2);
    EXPECT_EQ(quantize_unit(0.984375, 16), 15);
    EXPECT_EQ(quantize_unit(0.484375, 16), 7);
}

TEST(Quantize, Extremes) {
    EXPECT_EQ(quantize_unit(0.0, 16), 0);
    EXPECT_EQ(quantize_unit(1.0, 16), 15);
    EXPECT_EQ(quantize_unit(-0.5, 16), 0);
    EXPECT_EQ(quantize_unit(1.5, 16), 15);
}

TEST(QuantizedBank, RowsMatchSequencePlusQuantize) {
    const auto table = sobol_directions::standard(4);
    const quantized_sobol_bank bank(table, 4, 64, 16);
    for (std::size_t d = 0; d < 4; ++d) {
        sobol_sequence seq(table.direction_numbers(d));
        const auto row = bank.row(d);
        for (std::size_t i = 0; i < 64; ++i) {
            EXPECT_EQ(row[i], quantize_unit(next_unit(seq), 16));
        }
    }
}

TEST(QuantizedBank, ScrambledRowsStayEquidistributed) {
    const auto table = sobol_directions::standard(4);
    const quantized_sobol_bank bank(table, 4, 1024, 16, /*scramble_seed=*/99);
    for (std::size_t d = 0; d < 4; ++d) {
        std::array<int, 16> histogram{};
        for (const std::uint8_t q : bank.row(d)) ++histogram[q];
        // 1024 samples over 16 levels: interior levels get ~68, the two edge
        // levels ~34 (round() halves their quantization cells).
        for (std::size_t q = 1; q + 1 < 16; ++q) {
            EXPECT_NEAR(histogram[q], 68, 20) << "level " << q;
        }
    }
}

TEST(QuantizedBank, ScrambleChangesRowsDeterministically) {
    const auto table = sobol_directions::standard(2);
    const quantized_sobol_bank plain(table, 2, 128, 16);
    const quantized_sobol_bank scrambled_a(table, 2, 128, 16, 7);
    const quantized_sobol_bank scrambled_b(table, 2, 128, 16, 7);
    bool any_difference = false;
    for (std::size_t i = 0; i < 128; ++i) {
        if (plain.row(1)[i] != scrambled_a.row(1)[i]) any_difference = true;
        EXPECT_EQ(scrambled_a.row(1)[i], scrambled_b.row(1)[i]);
    }
    EXPECT_TRUE(any_difference);
}

TEST(QuantizedBank, GeometryValidation) {
    const auto table = sobol_directions::standard(2);
    EXPECT_THROW(quantized_sobol_bank(table, 3, 64, 16), uhd::error);
    EXPECT_THROW(quantized_sobol_bank(table, 2, 64, 1), uhd::error);
    const quantized_sobol_bank bank(table, 2, 64, 16);
    EXPECT_THROW((void)bank.row(2), uhd::error);
    EXPECT_EQ(bank.row(1).size(), 64u);
}

} // namespace

// Tests for the baseline's item memories: pseudo-random position vectors
// and bit-flip level vectors (paper Fig. 1(a)).
#include <gtest/gtest.h>

#include <set>

#include "uhd/common/error.hpp"
#include "uhd/hdc/item_memory.hpp"
#include "uhd/hdc/similarity.hpp"

namespace {

using namespace uhd::hdc;

TEST(PositionMemory, DeterministicPerSeed) {
    const position_item_memory a(16, 512, randomness_source::xoshiro, 3);
    const position_item_memory b(16, 512, randomness_source::xoshiro, 3);
    const position_item_memory c(16, 512, randomness_source::xoshiro, 4);
    EXPECT_EQ(a.vector(5), b.vector(5));
    EXPECT_NE(a.vector(5), c.vector(5));
}

TEST(PositionMemory, VectorsAreNearlyOrthogonal) {
    const position_item_memory mem(32, 4096, randomness_source::xoshiro, 7);
    for (std::size_t i = 1; i < 8; ++i) {
        const double similarity = cosine(mem.vector(0), mem.vector(i));
        EXPECT_LT(std::abs(similarity), 0.08) << "pair (0," << i << ")";
    }
}

TEST(PositionMemory, LfsrSourceWorksAndDiffersFromXoshiro) {
    const position_item_memory lf(8, 256, randomness_source::lfsr, 3);
    const position_item_memory xo(8, 256, randomness_source::xoshiro, 3);
    EXPECT_NE(lf.vector(0), xo.vector(0));
    // LFSR vectors must still be roughly balanced.
    const auto v = lf.vector(0);
    EXPECT_NEAR(static_cast<double>(v.count_negative()), 128.0, 40.0);
}

TEST(PositionMemory, TailBitsAreZero) {
    const position_item_memory mem(4, 100, randomness_source::xoshiro, 9);
    for (std::size_t p = 0; p < 4; ++p) {
        const auto words = mem.row_words(p);
        EXPECT_EQ(words[1] >> 36, 0u); // bits 100..127 zero
    }
}

TEST(PositionMemory, Validation) {
    EXPECT_THROW(position_item_memory(0, 64, randomness_source::xoshiro, 1), uhd::error);
    const position_item_memory mem(2, 64, randomness_source::xoshiro, 1);
    EXPECT_THROW((void)mem.row_words(2), uhd::error);
    EXPECT_GT(mem.memory_bytes(), 0u);
}

TEST(LevelMemory, ThermometerFlipLaw) {
    // L_k[d] = +1 iff k >= tau_d: once an element flips to +1 it stays +1.
    const level_item_memory mem(64, 256, randomness_source::xoshiro, 5);
    std::set<std::size_t> tau; // the distinct flip levels
    for (std::size_t d = 0; d < 256; ++d) {
        std::size_t flip = 0; // the first level where element d is +1
        for (std::size_t k = 1; k <= 64; ++k) {
            const bool plus = !mem.vector(k).bits().bit(d); // bit 1 = -1
            EXPECT_TRUE(plus || flip == 0) << "d=" << d << " flips back at k=" << k;
            if (plus && flip == 0) flip = k;
        }
        tau.insert(flip);
    }
    // The flip levels spread over the range rather than sitting at one level.
    EXPECT_GT(tau.size(), 32u);
}

TEST(LevelMemory, AdjacentLevelsAreSimilarDistantLevelsAreNot) {
    const level_item_memory mem(256, 2048, randomness_source::xoshiro, 6);
    const double near = cosine(mem.vector(100), mem.vector(101));
    const double mid = cosine(mem.vector(100), mem.vector(160));
    const double far = cosine(mem.vector(1), mem.vector(256));
    EXPECT_GT(near, 0.95);
    EXPECT_GT(near, mid);
    EXPECT_GT(mid, far);
}

TEST(LevelMemory, TopLevelIsAllPlus) {
    const level_item_memory mem(16, 128, randomness_source::xoshiro, 7);
    // tau_d <= levels always, so L_levels = all +1.
    EXPECT_EQ(mem.vector(16).count_negative(), 0u);
}

TEST(LevelMemory, LevelOfMapsFullIntensityRange) {
    const level_item_memory mem(256, 64, randomness_source::xoshiro, 8);
    EXPECT_EQ(mem.level_of(0), 1u);
    EXPECT_EQ(mem.level_of(255), 256u);
    for (int x = 0; x < 256; ++x) {
        const std::size_t k = mem.level_of(static_cast<std::uint8_t>(x));
        EXPECT_GE(k, 1u);
        EXPECT_LE(k, 256u);
    }
    // Monotone in intensity.
    EXPECT_LE(mem.level_of(10), mem.level_of(200));
}

TEST(LevelMemory, SixteenLevelConfig) {
    const level_item_memory mem(16, 64, randomness_source::xoshiro, 9);
    EXPECT_EQ(mem.level_of(0), 1u);
    EXPECT_EQ(mem.level_of(255), 16u);
}

TEST(LevelMemory, Validation) {
    EXPECT_THROW(level_item_memory(1, 64, randomness_source::xoshiro, 1), uhd::error);
    const level_item_memory mem(4, 64, randomness_source::xoshiro, 1);
    EXPECT_THROW((void)mem.row_words(0), uhd::error); // 1-based
    EXPECT_THROW((void)mem.row_words(5), uhd::error);
    EXPECT_GT(mem.memory_bytes(), 0u);
}

} // namespace

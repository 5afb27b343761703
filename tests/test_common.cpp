// Unit tests for the common substrate: RNG, bit utilities, ledger, config,
// table rendering, binary serialization, and cache-aligned storage.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "uhd/common/aligned_vector.hpp"
#include "uhd/common/alloc_ledger.hpp"
#include "uhd/common/bits.hpp"
#include "uhd/common/config.hpp"
#include "uhd/common/error.hpp"
#include "uhd/common/io.hpp"
#include "uhd/common/rng.hpp"
#include "uhd/common/stopwatch.hpp"
#include "uhd/common/table.hpp"

namespace {

using namespace uhd;

TEST(Rng, SplitMixIsDeterministic) {
    splitmix64 a(42);
    splitmix64 b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitMixSeedsDiffer) {
    splitmix64 a(1);
    splitmix64 b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, Hash64MatchesSplitMixStep) {
    EXPECT_EQ(hash64(7), splitmix64(7).next());
}

TEST(Rng, XoshiroIsDeterministic) {
    xoshiro256ss a(123);
    xoshiro256ss b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NextUnitInRange) {
    xoshiro256ss rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.next_unit();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, NextUnitMeanNearHalf) {
    xoshiro256ss rng(10);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.next_unit();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBelowRespectsBound) {
    xoshiro256ss rng(11);
    for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(13), 13u);
}

TEST(Rng, NextBelowZeroBound) {
    xoshiro256ss rng(11);
    EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversAllResidues) {
    xoshiro256ss rng(12);
    std::array<int, 7> seen{};
    for (int i = 0; i < 10000; ++i) ++seen[rng.next_below(7)];
    for (const int count : seen) EXPECT_GT(count, 0);
}

TEST(AlignedVector, StorageStartsOnACacheLineThroughGrowthAndCopies) {
    const auto offset = [](const void* p) {
        return reinterpret_cast<std::uintptr_t>(p) % cache_line_bytes;
    };
    cache_aligned_vector<std::uint64_t> words;
    for (std::size_t n = 1; n <= 4096; n = n * 3 + 1) {
        words.assign(n, n);
        EXPECT_EQ(offset(words.data()), 0u) << "n=" << n;
        const cache_aligned_vector<std::uint64_t> copy = words;
        EXPECT_EQ(offset(copy.data()), 0u) << "n=" << n;
        EXPECT_EQ(copy, words);
    }
    cache_aligned_vector<std::uint8_t> bytes;
    for (std::size_t i = 0; i < 1000; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(i));
        EXPECT_EQ(offset(bytes.data()), 0u) << "size=" << bytes.size();
    }
}

TEST(Bits, WordsForBits) {
    EXPECT_EQ(words_for_bits(0), 0u);
    EXPECT_EQ(words_for_bits(1), 1u);
    EXPECT_EQ(words_for_bits(64), 1u);
    EXPECT_EQ(words_for_bits(65), 2u);
    EXPECT_EQ(words_for_bits(1024), 16u);
}

TEST(Bits, LowMask) {
    EXPECT_EQ(low_mask(0), 0u);
    EXPECT_EQ(low_mask(1), 1u);
    EXPECT_EQ(low_mask(8), 0xFFu);
    EXPECT_EQ(low_mask(64), ~std::uint64_t{0});
}

TEST(Bits, CeilLog2) {
    EXPECT_EQ(ceil_log2(1), 0);
    EXPECT_EQ(ceil_log2(2), 1);
    EXPECT_EQ(ceil_log2(3), 2);
    EXPECT_EQ(ceil_log2(784), 10);
    EXPECT_EQ(ceil_log2(1024), 10);
    EXPECT_EQ(ceil_log2(1025), 11);
}

TEST(AllocLedger, AccumulatesByLabel) {
    alloc_ledger ledger;
    ledger.add("a", 100);
    ledger.add("b", 50);
    ledger.add("a", 25);
    EXPECT_EQ(ledger.total_bytes(), 175u);
}

TEST(AllocLedger, TotalKibRoundsUp) {
    alloc_ledger ledger;
    ledger.add("x", 1);
    EXPECT_EQ(ledger.total_kib(), 1u);
    ledger.add("x", 1023);
    EXPECT_EQ(ledger.total_kib(), 1u);
    ledger.add("x", 1);
    EXPECT_EQ(ledger.total_kib(), 2u);
}

TEST(Config, EnvIntFallback) {
    unsetenv("UHD_TEST_INT");
    EXPECT_EQ(env_int("UHD_TEST_INT", 7), 7);
    setenv("UHD_TEST_INT", "42", 1);
    EXPECT_EQ(env_int("UHD_TEST_INT", 7), 42);
    setenv("UHD_TEST_INT", "junk", 1);
    EXPECT_EQ(env_int("UHD_TEST_INT", 7), 7);
    unsetenv("UHD_TEST_INT");
}

TEST(Config, EnvIntRejectsNegative) {
    setenv("UHD_TEST_INT", "-3", 1);
    EXPECT_THROW((void)env_int("UHD_TEST_INT", 7), uhd::error);
    unsetenv("UHD_TEST_INT");
}

TEST(Config, EnvBoolParsing) {
    setenv("UHD_TEST_BOOL", "true", 1);
    EXPECT_TRUE(env_bool("UHD_TEST_BOOL", false));
    setenv("UHD_TEST_BOOL", "0", 1);
    EXPECT_FALSE(env_bool("UHD_TEST_BOOL", true));
    setenv("UHD_TEST_BOOL", "weird", 1);
    EXPECT_TRUE(env_bool("UHD_TEST_BOOL", true));
    unsetenv("UHD_TEST_BOOL");
}

TEST(Config, EnvString) {
    unsetenv("UHD_TEST_STR");
    EXPECT_EQ(env_string("UHD_TEST_STR", "dflt"), "dflt");
    setenv("UHD_TEST_STR", "value", 1);
    EXPECT_EQ(env_string("UHD_TEST_STR", "dflt"), "value");
    unsetenv("UHD_TEST_STR");
}

TEST(Table, RendersAlignedColumns) {
    text_table t;
    t.set_header({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "22"});
    const std::string out = t.to_string();
    EXPECT_NE(out.find("| name  | value |"), std::string::npos);
    EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
}

TEST(Table, Formatters) {
    EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
    EXPECT_EQ(format_ratio(43.75, 1), "43.8x");
    EXPECT_EQ(format_sci(0.00017, 2), "1.70e-04");
}

TEST(Io, RoundTripScalars) {
    std::stringstream ss;
    io::write_header(ss, 0x1234u, 3);
    io::write_u64(ss, 77);
    EXPECT_EQ(io::read_header(ss, 0x1234u, 5), 3u);
    EXPECT_EQ(io::read_u64(ss), 77u);
}

TEST(Io, HeaderMagicMismatchThrows) {
    std::stringstream ss;
    io::write_header(ss, 0x1234u, 1);
    EXPECT_THROW((void)io::read_header(ss, 0x9999u, 1), uhd::error);
}

TEST(Io, VersionTooNewThrows) {
    std::stringstream ss;
    io::write_header(ss, 0x1234u, 9);
    EXPECT_THROW((void)io::read_header(ss, 0x1234u, 2), uhd::error);
}

TEST(Io, PodVectorRoundTrip) {
    std::stringstream ss;
    std::vector<std::int32_t> v = {1, -2, 3, 2000000000};
    io::write_pod_span<std::int32_t>(ss, v);
    EXPECT_EQ(io::read_pod_vector<std::int32_t>(ss, v.size()), v);
}

TEST(Io, TruncatedReadThrows) {
    std::stringstream ss;
    io::write_u32(ss, 5);
    (void)io::read_u32(ss);
    EXPECT_THROW((void)io::read_u64(ss), uhd::error);
}

TEST(Io, Crc32cMatchesTheCheckValueAndChains) {
    // The CRC32C check value (RFC 3720, appendix B.4): "123456789".
    const std::string check = "123456789";
    EXPECT_EQ(io::crc32c(0, check.data(), check.size()), 0xE3069283u);
    EXPECT_EQ(io::crc32c(0, nullptr, 0), 0u);
    // Any split continues to the same CRC: the 8-byte steps and the byte
    // tail agree.
    std::string text;
    for (int i = 0; i < 100; ++i) text.push_back(static_cast<char>(i * 37 + 11));
    const std::uint32_t whole = io::crc32c(0, text.data(), text.size());
    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
        const std::uint32_t head = io::crc32c(0, text.data(), cut);
        EXPECT_EQ(io::crc32c(head, text.data() + cut, text.size() - cut), whole) << cut;
    }
}

TEST(Stopwatch, TimeAdvances) {
    stopwatch sw;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
    EXPECT_GE(sw.seconds(), 0.0);
    EXPECT_GE(sw.milliseconds(), 0.0);
}

TEST(Error, RequireThrowsWithContext) {
    try {
        UHD_REQUIRE(1 == 2, "math is broken");
        FAIL() << "expected throw";
    } catch (const uhd::error& e) {
        EXPECT_NE(std::string(e.what()).find("math is broken"), std::string::npos);
    }
}

} // namespace

// Tests for the bit-serial datapath simulators: bit-exact equivalence with
// the fast encoders and exact event accounting.
#include <gtest/gtest.h>

#include "uhd/data/synthetic.hpp"
#include "uhd/sim/baseline_datapath.hpp"
#include "uhd/sim/uhd_datapath.hpp"

namespace {

using namespace uhd;

std::vector<std::uint8_t> test_image() {
    const auto ds = data::make_synthetic_digits(1, 42);
    const auto img = ds.image(0);
    return {img.begin(), img.end()};
}

TEST(UhdDatapath, MatchesFastEncoderMeanPolicy) {
    // Both threshold sources: the simulator reads one threshold per
    // (pixel, dimension) from the bit planes or by a Gray-code jump. With
    // scramble off, every pixel's thresholds are the unshifted sequence.
    for (const auto bank : {uhd::bank_mode::stored, uhd::bank_mode::rematerialize}) {
        for (const bool scramble : {true, false}) {
            core::uhd_config cfg;
            cfg.dim = 128;
            cfg.bank = bank;
            cfg.scramble = scramble;
            const core::uhd_encoder enc(cfg, {28, 28, 1});
            const sim::uhd_datapath_sim datapath(enc);
            const auto image = test_image();
            const auto from_sim = datapath.run(image);
            const auto from_encoder = enc.encode_sign(image);
            EXPECT_EQ(from_sim, from_encoder)
                << (bank == uhd::bank_mode::stored ? "stored" : "rematerialize")
                << " scramble=" << scramble;
        }
    }
}

TEST(UhdDatapath, MatchesFastEncoderHalfInputsPolicy) {
    core::uhd_config cfg;
    cfg.dim = 128;
    cfg.policy = core::binarize_policy::half_inputs;
    const core::uhd_encoder enc(cfg, {28, 28, 1});
    const sim::uhd_datapath_sim datapath(enc);
    const auto image = test_image();
    EXPECT_EQ(datapath.run(image), enc.encode_sign(image));
}

TEST(UhdDatapath, EventCountsAreExact) {
    core::uhd_config cfg;
    cfg.dim = 64;
    const core::uhd_encoder enc(cfg, {6, 6, 1});
    const sim::uhd_datapath_sim datapath(enc);
    std::vector<std::uint8_t> image(36, 128);
    sim::event_counts events;
    (void)datapath.run(image, &events);
    const std::uint64_t hd = 36ull * 64ull;
    EXPECT_EQ(events.cycles, hd);
    EXPECT_EQ(events.comparator_ops, hd);
    EXPECT_EQ(events.bram_scalar_reads, hd);
    EXPECT_EQ(events.ust_fetches, 2 * hd);
    EXPECT_EQ(events.reg_scalar_reads, hd);
    EXPECT_EQ(events.xor_binds, 0u);    // uHD is multiplier-less
    EXPECT_EQ(events.lfsr_steps, 0u);   // and needs no pseudo-randomness
    EXPECT_LE(events.counter_increments, hd);
    EXPECT_LE(events.sign_latches, 64u);
}

TEST(UhdDatapath, EventsAccumulateAcrossRuns) {
    core::uhd_config cfg;
    cfg.dim = 64;
    const core::uhd_encoder enc(cfg, {6, 6, 1});
    const sim::uhd_datapath_sim datapath(enc);
    std::vector<std::uint8_t> image(36, 60);
    sim::event_counts events;
    (void)datapath.run(image, &events);
    const auto first_cycles = events.cycles;
    (void)datapath.run(image, &events);
    EXPECT_EQ(events.cycles, 2 * first_cycles);
}

TEST(BaselineDatapath, MatchesFastEncoder) {
    hdc::baseline_config cfg;
    cfg.dim = 128;
    const hdc::baseline_encoder enc(cfg, {28, 28, 1});
    const sim::baseline_datapath_sim datapath(enc);
    const auto image = test_image();
    EXPECT_EQ(datapath.run(image), enc.encode_sign(image));
}

TEST(BaselineDatapath, EventCountsAreExact) {
    hdc::baseline_config cfg;
    cfg.dim = 64;
    const hdc::baseline_encoder enc(cfg, {6, 6, 1});
    const sim::baseline_datapath_sim datapath(enc);
    std::vector<std::uint8_t> image(36, 200);
    sim::event_counts events;
    (void)datapath.run(image, &events);
    const std::uint64_t hd = 36ull * 64ull;
    EXPECT_EQ(events.cycles, hd);
    EXPECT_EQ(events.xor_binds, hd);
    EXPECT_EQ(events.comparator_ops, hd);
    EXPECT_EQ(events.lfsr_steps, 2 * hd); // P and L random bits
    EXPECT_EQ(events.ust_fetches, 0u);    // no unary streams in the baseline
    EXPECT_EQ(events.bram_scalar_reads, 0u);
}

TEST(BaselineDatapath, UhdNeedsFewerRandomEventsThanBaseline) {
    // The headline architectural difference in event space: uHD performs no
    // LFSR steps and no binding XORs; the baseline performs 2HD and HD.
    core::uhd_config ucfg;
    ucfg.dim = 64;
    const core::uhd_encoder uenc(ucfg, {6, 6, 1});
    hdc::baseline_config bcfg;
    bcfg.dim = 64;
    const hdc::baseline_encoder benc(bcfg, {6, 6, 1});
    std::vector<std::uint8_t> image(36, 90);
    sim::event_counts ue;
    sim::event_counts be;
    (void)sim::uhd_datapath_sim(uenc).run(image, &ue);
    (void)sim::baseline_datapath_sim(benc).run(image, &be);
    EXPECT_EQ(ue.lfsr_steps + ue.xor_binds, 0u);
    EXPECT_GT(be.lfsr_steps + be.xor_binds, 0u);
}

TEST(EventCounts, ToStringContainsAllFields) {
    sim::event_counts e;
    e.cycles = 5;
    e.ust_fetches = 7;
    const std::string s = e.to_string();
    EXPECT_NE(s.find("cycles=5"), std::string::npos);
    EXPECT_NE(s.find("ust_fetches=7"), std::string::npos);
}

} // namespace

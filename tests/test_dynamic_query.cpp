// Tests for the dynamic-dimension query path: prefix-window associative
// search through the one-query search kernel (vs the pinned scalar oracle,
// and running-distance stages vs a fresh prefix scan), the early-exit
// cascade's full-D fallback bit-identity with predict_encoded, calibration
// guarantees and pinned thresholds, and stats accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/rng.hpp"
#include "uhd/common/simd.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/class_memory.hpp"
#include "uhd/hdc/classifier.hpp"
#include "uhd/hdc/dynamic_query.hpp"

namespace {

using namespace uhd;
using namespace uhd::hdc;

hypervector random_hv(std::size_t dim, xoshiro256ss& rng) {
    return hypervector::random(dim, rng);
}

class_memory random_memory(std::size_t classes, std::size_t dim, xoshiro256ss& rng) {
    class_memory mem(classes, dim);
    for (std::size_t c = 0; c < classes; ++c) mem.store(c, random_hv(dim, rng));
    return mem;
}

/// One-query prefix-window search: argmin + runner-up over the first
/// `window` words of every row of `mem`.
kernels::argmin2_result prefix_scan(const class_memory& mem,
                                    std::span<const std::uint64_t> query,
                                    std::size_t window) {
    kernels::argmin2_result r{};
    kernels::hamming_block_argmin2_prefix(query.data(), mem.words_per_class(), 1,
                                          mem.rows().data(), mem.words_per_class(), 0,
                                          window, mem.classes(), nullptr, &r);
    return r;
}

TEST(DynamicQuery, PrefixKernelMatchesPinnedReference) {
    xoshiro256ss rng(101);
    for (const std::size_t dim : {64u, 200u, 1024u, 4096u}) {
        for (const std::size_t classes : {1u, 2u, 7u, 26u}) {
            const class_memory mem = random_memory(classes, dim, rng);
            const hypervector query = random_hv(dim, rng);
            const auto words = query.bits().words();
            for (std::size_t window = 1; window <= mem.words_per_class();
                 window += (window < 4 ? 1 : 3)) {
                const auto fast = prefix_scan(mem, words, window);
                kernels::argmin2_result ref{};
                simd::hamming_block_argmin2_prefix_reference(
                    words.data(), mem.words_per_class(), 1, mem.rows().data(),
                    mem.words_per_class(), 0, window, classes, nullptr, &ref);
                ASSERT_EQ(fast.index, ref.index);
                ASSERT_EQ(fast.distance, ref.distance);
                ASSERT_EQ(fast.runner_up, ref.runner_up);
            }
        }
    }
}

TEST(DynamicQuery, ExtendKernelMatchesFreshPrefixScan) {
    xoshiro256ss rng(303);
    const std::size_t dim = 2048;
    const std::size_t classes = 10;
    const class_memory mem = random_memory(classes, dim, rng);
    const hypervector query = random_hv(dim, rng);
    const auto qwords = query.bits().words();
    const std::size_t words = mem.words_per_class();

    // The cascade's stage calls: each one extends the running distances over
    // its new words only, and must answer like a fresh scan of its window.
    std::vector<std::uint64_t> running(classes, 0);
    std::size_t from = 0;
    for (const std::size_t to : {words / 8, words / 4, words / 2, words}) {
        kernels::argmin2_result incremental{};
        kernels::hamming_block_argmin2_prefix(qwords.data(), words, 1,
                                              mem.rows().data(), words, from, to,
                                              classes, running.data(), &incremental);
        from = to;
        const auto fresh = prefix_scan(mem, qwords, to);
        EXPECT_EQ(incremental.index, fresh.index);
        EXPECT_EQ(incremental.distance, fresh.distance);
        EXPECT_EQ(incremental.runner_up, fresh.runner_up);
    }
}

TEST(DynamicQuery, SingleRowMemoryHasSaturatedMargin) {
    // One row has no runner-up: the margin saturates, so calibration must
    // enable every early stage ("always exit"), not leave it disabled, and
    // the cascade answers from the first window.
    xoshiro256ss rng(404);
    const class_memory mem = random_memory(1, 1024, rng);
    const hypervector query = random_hv(1024, rng);
    EXPECT_EQ(prefix_scan(mem, query.bits().words(), 2).runner_up,
              ~std::uint64_t{0});
    const auto policy =
        dynamic_query_policy::calibrate(mem, query.bits().words(), 1, 0.99);
    ASSERT_GE(policy.stages().size(), 2u);
    for (std::size_t s = 0; s + 1 < policy.stages().size(); ++s) {
        EXPECT_EQ(policy.stages()[s].margin_threshold,
                  dynamic_query_policy::disabled_threshold - 1);
    }
    dynamic_query_stats stats;
    EXPECT_EQ(policy.answer(mem, query.bits().words(), &stats), 0u);
    EXPECT_EQ(stats.exit_stage, 0u);
}

TEST(DynamicQuery, LadderShapeAndFullScanPolicy) {
    xoshiro256ss rng(606);
    const class_memory mem = random_memory(5, 4096, rng); // 64 words
    const auto ladder = dynamic_query_policy::ladder(mem);
    ASSERT_EQ(ladder.stages().size(), 4u);
    EXPECT_EQ(ladder.stages()[0].window_words, 8u);
    EXPECT_EQ(ladder.stages()[1].window_words, 16u);
    EXPECT_EQ(ladder.stages()[2].window_words, 32u);
    EXPECT_EQ(ladder.stages()[3].window_words, 64u);
    EXPECT_EQ(ladder.stages()[3].margin_threshold, 0u);
    for (std::size_t s = 0; s + 1 < ladder.stages().size(); ++s) {
        EXPECT_EQ(ladder.stages()[s].margin_threshold,
                  dynamic_query_policy::disabled_threshold);
    }

    // Tiny rows collapse the ladder but always end on the full window.
    const class_memory tiny = random_memory(3, 64, rng); // one word
    const auto tiny_ladder = dynamic_query_policy::ladder(tiny);
    ASSERT_EQ(tiny_ladder.stages().size(), 1u);
    EXPECT_EQ(tiny_ladder.stages()[0].window_words, 1u);

    const auto full = dynamic_query_policy::full_scan(mem);
    ASSERT_EQ(full.stages().size(), 1u);
    EXPECT_EQ(full.stages()[0].window_words, 64u);
}

TEST(DynamicQuery, UncalibratedLadderAnswersExactlyLikeNearest) {
    xoshiro256ss rng(707);
    const class_memory mem = random_memory(10, 2048, rng);
    const auto policy = dynamic_query_policy::ladder(mem);
    for (int q = 0; q < 50; ++q) {
        const hypervector query = random_hv(2048, rng);
        dynamic_query_stats stats;
        const std::size_t answer = policy.answer(mem, query.bits().words(), &stats);
        EXPECT_EQ(answer, mem.nearest(query.bits().words()));
        // Every early stage is disabled, so the cascade must run to the end.
        EXPECT_EQ(stats.exit_stage, policy.stages().size() - 1);
        EXPECT_EQ(stats.window_words, mem.words_per_class());
        EXPECT_EQ(stats.words_scanned, mem.classes() * mem.words_per_class());
    }
}

TEST(DynamicQuery, FullDFallbackMatchesPredictEncoded) {
    // The dynamic-query determinism contract on a real trained model: any
    // query the cascade escalates to the final stage answers bit-identically
    // to binarized-mode predict_encoded.
    const auto train = data::make_synthetic_digits(150, 21);
    const auto test = data::make_synthetic_digits(80, 22);
    core::uhd_config cfg;
    cfg.dim = 1024;
    const core::uhd_encoder enc(cfg, train.shape());
    hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::raw_sums,
                                         query_mode::binarized);
    clf.fit(train);

    const auto ladder = dynamic_query_policy::ladder(clf.packed_class_memory());
    const auto calibrated = clf.calibrate_dynamic(train, 0.99);
    std::vector<std::int32_t> encoded(enc.dim());
    for (std::size_t i = 0; i < test.size(); ++i) {
        enc.encode(test.image(i), encoded);
        const std::size_t full = clf.predict_encoded(encoded);
        // Disabled ladder == always the full-D answer.
        EXPECT_EQ(clf.predict_dynamic_encoded(encoded, ladder), full);
        // Calibrated cascade: whenever it reaches the final stage, it must
        // give the full-D answer (earlier exits may legitimately differ).
        dynamic_query_stats stats;
        const std::size_t dynamic_answer =
            clf.predict_dynamic_encoded(encoded, calibrated, &stats);
        if (stats.exit_stage + 1 == calibrated.stages().size()) {
            EXPECT_EQ(dynamic_answer, full);
        }
        EXPECT_EQ(stats.words_scanned, clf.classes() * stats.window_words);
        // predict_dynamic(image) is encode + the same cascade.
        EXPECT_EQ(clf.predict_dynamic(test.image(i), calibrated), dynamic_answer);
    }
}

TEST(DynamicQuery, CalibrationHitsTargetAgreementOnCalibrationSet) {
    const auto train = data::make_synthetic_digits(200, 31);
    const auto calib = data::make_synthetic_digits(120, 32);
    core::uhd_config cfg;
    cfg.dim = 2048;
    const core::uhd_encoder enc(cfg, train.shape());
    hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::raw_sums,
                                         query_mode::binarized);
    clf.fit(train);

    const double target = 0.99;
    const auto policy = clf.calibrate_dynamic(calib, target);
    ASSERT_GE(policy.stages().size(), 2u);

    // Re-derive the per-stage guarantee the calibration promises: among
    // calibration queries whose margin clears the stage threshold, the
    // truncated answer agrees with full-D at >= target rate.
    std::vector<std::int32_t> encoded(enc.dim());
    std::vector<std::uint64_t> words(simd::sign_words(enc.dim()));
    for (std::size_t s = 0; s + 1 < policy.stages().size(); ++s) {
        const auto& stage = policy.stages()[s];
        if (stage.margin_threshold == dynamic_query_policy::disabled_threshold) {
            continue;
        }
        std::size_t kept = 0;
        std::size_t agree = 0;
        for (std::size_t i = 0; i < calib.size(); ++i) {
            enc.encode(calib.image(i), encoded);
            kernels::sign_binarize(encoded.data(), encoded.size(), words.data());
            const auto r =
                prefix_scan(clf.packed_class_memory(), words, stage.window_words);
            if (r.runner_up - r.distance < stage.margin_threshold) continue;
            ++kept;
            if (r.index == clf.packed_class_memory().nearest(words)) ++agree;
        }
        if (kept == 0) continue;
        EXPECT_GE(static_cast<double>(agree),
                  target * static_cast<double>(kept))
            << "stage " << s;
    }
}

TEST(DynamicQuery, CalibratedThresholdsArePinned) {
    // A fixed memory and query set: 26 random rows at D = 4096 (the
    // 8/16/32/64-word ladder) and 260 queries, each a class row with 42-48%
    // of its bits flipped, so the early windows often disagree with the
    // full scan. uhd_serve and uhd_loadgen calibrate their policies with
    // this code, and an agreement-rate check would not see the thresholds
    // drift, so the exact values are pinned.
    xoshiro256ss rng(2718);
    const std::size_t classes = 26;
    const class_memory mem = random_memory(classes, 4096, rng);
    const std::size_t words = mem.words_per_class();
    const std::size_t count = 260;
    std::vector<std::uint64_t> queries(count * words);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t* row = mem.rows().data() + (i % classes) * words;
        const std::uint64_t flip_per_mille = 420 + 60 * (i % 7) / 6;
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t mask = 0;
            for (unsigned b = 0; b < 64; ++b) {
                if (rng.next() % 1000 < flip_per_mille) mask |= std::uint64_t{1} << b;
            }
            queries[i * words + w] = row[w] ^ mask;
        }
    }
    struct pinned {
        double target;
        std::uint64_t thresholds[3];
    };
    for (const pinned& pin : {pinned{0.99, {24, 18, 20}}, pinned{0.9, {12, 10, 2}}}) {
        const auto policy = dynamic_query_policy::calibrate(mem, queries, count, pin.target);
        ASSERT_EQ(policy.stages().size(), 4u);
        for (std::size_t s = 0; s < 3; ++s) {
            EXPECT_EQ(policy.stages()[s].window_words, std::size_t{8} << s);
            EXPECT_EQ(policy.stages()[s].margin_threshold, pin.thresholds[s])
                << "target " << pin.target << " stage " << s;
        }
        EXPECT_EQ(policy.stages()[3].margin_threshold, 0u);
    }
}

TEST(DynamicQuery, CalibrationWithoutDataStaysFullScan) {
    xoshiro256ss rng(808);
    const class_memory mem = random_memory(10, 1024, rng);
    const auto policy = dynamic_query_policy::calibrate(mem, {}, 0, 0.99);
    for (std::size_t s = 0; s + 1 < policy.stages().size(); ++s) {
        EXPECT_EQ(policy.stages()[s].margin_threshold,
                  dynamic_query_policy::disabled_threshold);
    }
}

TEST(DynamicQuery, CalibrationValidatesArguments) {
    xoshiro256ss rng(909);
    const class_memory mem = random_memory(4, 256, rng);
    EXPECT_THROW((void)dynamic_query_policy::calibrate(mem, {}, 0, 1.5), uhd::error);
    EXPECT_THROW((void)dynamic_query_policy::calibrate(mem, {}, 0, -0.1), uhd::error);
    const std::vector<std::uint64_t> too_short(2, 0);
    EXPECT_THROW((void)dynamic_query_policy::calibrate(mem, too_short, 5, 0.9),
                 uhd::error);
}

TEST(DynamicQuery, AnswerValidatesPolicyAndQueryGeometry) {
    xoshiro256ss rng(1010);
    const class_memory mem = random_memory(4, 1024, rng);
    const class_memory other = random_memory(4, 2048, rng);
    const auto policy = dynamic_query_policy::ladder(mem);
    const hypervector query = random_hv(2048, rng);
    EXPECT_THROW((void)policy.answer(other, query.bits().words()), uhd::error);
    const dynamic_query_policy empty;
    const hypervector small = random_hv(1024, rng);
    EXPECT_THROW((void)empty.answer(mem, small.bits().words()), uhd::error);
}

} // namespace

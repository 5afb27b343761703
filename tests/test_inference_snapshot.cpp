// Tests for the immutable inference snapshot: bit-identity with the
// classifier's read paths per backend, copy independence under continued
// training, online-update equality with a sequential classifier, and the
// model save/load roundtrip through the snapshot type.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/core/model.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/classifier.hpp"
#include "uhd/hdc/inference_snapshot.hpp"

namespace {

using namespace uhd;
using namespace uhd::hdc;

/// RAII reset: tests that force a backend must leave the process on the
/// environment-selected one (see test_backend_dispatch).
struct backend_reset {
    ~backend_reset() {
        const std::string_view env = kernels::backend_override();
        kernels::force_backend(env.empty() ? "auto" : env);
    }
};

core::uhd_encoder make_encoder(const data::dataset& set, std::size_t dim = 512) {
    core::uhd_config cfg;
    cfg.dim = dim;
    return core::uhd_encoder(cfg, set.shape());
}

std::vector<std::int32_t> encode_one(const core::uhd_encoder& enc,
                                     const data::dataset& set, std::size_t i) {
    std::vector<std::int32_t> out(enc.dim());
    enc.encode(set.image(i), out);
    return out;
}

TEST(InferenceSnapshot, MatchesClassifierPredictionsBothModes) {
    const auto train = data::make_synthetic_digits(150, 51);
    const auto test = data::make_synthetic_digits(60, 52);
    const auto enc = make_encoder(train);
    for (const query_mode qm : {query_mode::binarized, query_mode::integer}) {
        hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::raw_sums, qm);
        clf.fit(train);
        const inference_snapshot snap = clf.snapshot();
        EXPECT_EQ(snap.mode(), qm);
        EXPECT_EQ(snap.dim(), enc.dim());
        EXPECT_EQ(snap.classes(), 10u);
        for (std::size_t i = 0; i < test.size(); ++i) {
            const auto encoded = encode_one(enc, test, i);
            EXPECT_EQ(snap.predict_encoded(encoded), clf.predict_encoded(encoded))
                << "mode=" << static_cast<int>(qm) << " query=" << i;
        }
    }
}

TEST(InferenceSnapshot, MatchesDynamicCascadeAnswersAndStats) {
    // The cascade answers from the packed memory in either query mode: an
    // integer-mode snapshot's answers, exit stages and words scanned equal
    // the binarized snapshot's.
    const auto train = data::make_synthetic_digits(150, 53);
    const auto test = data::make_synthetic_digits(60, 54);
    const auto enc = make_encoder(train, 1024);
    hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::binarized_images,
                                         query_mode::binarized);
    clf.fit(train);
    hd_classifier<core::uhd_encoder> integer_clf(enc, 10, train_mode::binarized_images,
                                                 query_mode::integer);
    integer_clf.fit(train);
    const dynamic_query_policy policy = clf.calibrate_dynamic(train, 0.95);
    const inference_snapshot snap = clf.snapshot();
    const inference_snapshot integer_snap = integer_clf.snapshot();
    ASSERT_EQ(integer_snap.mode(), query_mode::integer);
    std::size_t modes_differ = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
        const auto encoded = encode_one(enc, test, i);
        if (integer_snap.predict_encoded(encoded) != snap.predict_encoded(encoded)) {
            ++modes_differ;
        }
        dynamic_query_stats from_snap{};
        dynamic_query_stats from_clf{};
        dynamic_query_stats from_integer{};
        const std::size_t answer = snap.predict_dynamic_encoded(encoded, policy, &from_snap);
        EXPECT_EQ(answer, clf.predict_dynamic_encoded(encoded, policy, &from_clf));
        EXPECT_EQ(from_snap.exit_stage, from_clf.exit_stage);
        EXPECT_EQ(from_snap.words_scanned, from_clf.words_scanned);
        EXPECT_EQ(integer_snap.predict_dynamic_encoded(encoded, policy, &from_integer),
                  answer)
            << "query " << i;
        EXPECT_EQ(from_integer.exit_stage, from_snap.exit_stage);
        EXPECT_EQ(from_integer.words_scanned, from_snap.words_scanned);
    }
    // The modes' full scans must disagree somewhere, or a cascade that
    // fell back to the integer cosine would go unseen.
    EXPECT_GT(modes_differ, 0u);
}

TEST(InferenceSnapshot, PackedBlockPathsMatchClassMemoryOnes) {
    // The snapshot's packed-query entry points (the serve engine's block
    // calls) answer exactly like the class_memory ones they wrap.
    const auto train = data::make_synthetic_digits(100, 55);
    const auto enc = make_encoder(train, 1024);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    const inference_snapshot snap = clf.snapshot();
    const dynamic_query_policy policy = clf.calibrate_dynamic(train, 0.9);
    const std::size_t n = 8;
    const std::size_t words = kernels::sign_words(enc.dim());
    std::vector<std::uint64_t> block(n * words);
    for (std::size_t q = 0; q < n; ++q) {
        const auto encoded = encode_one(enc, train, q);
        kernels::sign_binarize(encoded.data(), encoded.size(), block.data() + q * words);
    }
    std::vector<std::size_t> from_snap(n);
    std::vector<std::size_t> from_mem(n);
    policy.answer_block(snap, block, n, from_snap);
    policy.answer_block(snap.memory(), block, n, from_mem);
    EXPECT_EQ(from_snap, from_mem);
    snap.predict_packed_block(block, n, from_snap);
    snap.memory().nearest_block(block, n, from_mem);
    EXPECT_EQ(from_snap, from_mem);
}

TEST(InferenceSnapshot, CopyIsIndependentOfContinuedTraining) {
    const auto train = data::make_synthetic_digits(150, 56);
    const auto more = data::make_synthetic_digits(150, 57);
    const auto test = data::make_synthetic_digits(40, 58);
    const auto enc = make_encoder(train);
    hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::raw_sums,
                                         query_mode::binarized);
    clf.fit(train);
    const inference_snapshot before = clf.snapshot();

    // Record the frozen snapshot's answers, keep training, and require the
    // old copy to answer exactly as it did — while the live classifier may
    // have moved on.
    std::vector<std::size_t> frozen_answers;
    for (std::size_t i = 0; i < test.size(); ++i) {
        frozen_answers.push_back(before.predict_encoded(encode_one(enc, test, i)));
    }
    for (std::size_t i = 0; i < more.size(); ++i) {
        clf.partial_fit(more.image(i), more.label(i));
    }
    const inference_snapshot after = clf.snapshot();
    EXPECT_FALSE(before == after) << "training should have changed the state";
    EXPECT_GT(after.version(), before.version());
    for (std::size_t i = 0; i < test.size(); ++i) {
        EXPECT_EQ(before.predict_encoded(encode_one(enc, test, i)),
                  frozen_answers[i]);
        EXPECT_EQ(after.predict_encoded(encode_one(enc, test, i)),
                  clf.predict_encoded(encode_one(enc, test, i)));
    }
}

TEST(InferenceSnapshot, PublishedAfterOnlineUpdatesEqualsSequentialClassifier) {
    // The online-learning correctness bar: train two identical classifiers,
    // stream the same N partial_fit updates into both, and require the
    // "publisher"'s snapshot to equal the sequential classifier's snapshot
    // payload exactly — in both query modes.
    const auto base = data::make_synthetic_digits(100, 59);
    const auto stream = data::make_synthetic_digits(120, 60);
    const auto enc = make_encoder(base);
    for (const query_mode qm : {query_mode::binarized, query_mode::integer}) {
        hd_classifier<core::uhd_encoder> publisher(enc, 10, train_mode::raw_sums, qm);
        hd_classifier<core::uhd_encoder> sequential(enc, 10, train_mode::raw_sums, qm);
        publisher.fit(base);
        sequential.fit(base);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            publisher.partial_fit(stream.image(i), stream.label(i));
            sequential.partial_fit(stream.image(i), stream.label(i));
            if (i % 13 == 0) {
                // Publish points: every copy equals the sequential state.
                EXPECT_TRUE(publisher.snapshot() == sequential.snapshot())
                    << "diverged at update " << i;
            }
        }
        EXPECT_TRUE(publisher.snapshot() == sequential.snapshot());
    }
}

TEST(InferenceSnapshot, VersionCountsMutations) {
    const auto train = data::make_synthetic_digits(60, 61);
    const auto enc = make_encoder(train, 256);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    const std::uint64_t v0 = clf.snapshot().version();
    clf.fit(train);
    const std::uint64_t v1 = clf.snapshot().version();
    EXPECT_GT(v1, v0);
    clf.partial_fit(train.image(0), train.label(0));
    EXPECT_GT(clf.snapshot().version(), v1);
    // Copies carry the version they were stamped with.
    const inference_snapshot snap = clf.snapshot();
    EXPECT_EQ(snap.version(), clf.snapshot().version());
}

TEST(InferenceSnapshot, EqualityIgnoresVersionComparesPayload) {
    const auto train = data::make_synthetic_digits(60, 62);
    const auto enc = make_encoder(train, 256);
    hd_classifier<core::uhd_encoder> a(enc, 10);
    hd_classifier<core::uhd_encoder> b(enc, 10);
    a.fit(train);
    b.fit(train);
    // Extra no-op-to-the-payload finalizes bump b's version only.
    b.load_state([&] {
        std::vector<accumulator> accs;
        for (std::size_t c = 0; c < 10; ++c) accs.push_back(b.class_accumulator(c));
        return accs;
    }());
    EXPECT_NE(a.snapshot().version(), b.snapshot().version());
    EXPECT_TRUE(a.snapshot() == b.snapshot());
}

TEST(InferenceSnapshot, BinarizedSnapshotCarriesNoIntegerRows) {
    const auto train = data::make_synthetic_digits(60, 63);
    const auto enc = make_encoder(train, 256);
    hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::raw_sums,
                                         query_mode::binarized);
    clf.fit(train);
    const inference_snapshot snap = clf.snapshot();
    EXPECT_TRUE(snap.class_values(0).empty());
    // Integer-mode snapshots do carry them (the read path needs them).
    hd_classifier<core::uhd_encoder> clf_int(enc, 10, train_mode::raw_sums,
                                             query_mode::integer);
    clf_int.fit(train);
    const inference_snapshot snap_int = clf_int.snapshot();
    ASSERT_EQ(snap_int.class_values(3).size(), enc.dim());
    const auto acc = clf_int.class_accumulator(3).values();
    for (std::size_t d = 0; d < enc.dim(); ++d) {
        EXPECT_EQ(snap_int.class_values(3)[d], acc[d]);
    }
}

// --- model save/load roundtrip through the snapshot type ------------------
//
// A loaded model's snapshot must be bit-identical to the saved model's:
// save() writes the accumulators (training state), load() re-finalizes,
// and the derived read state has to land on exactly the same packed rows,
// integer rows, and cached norms. This suite is registered in the
// forced-backend CTest matrix (*_scalar / *_swar), which is how the
// "under each forced backend" requirement runs in CI.

TEST(SnapshotRoundtrip, SaveLoadSnapshotBitIdenticalBothModes) {
    const auto train = data::make_synthetic_digits(120, 64);
    core::uhd_config cfg;
    cfg.dim = 512;
    const struct {
        hdc::train_mode tm;
        hdc::query_mode qm;
    } combos[] = {
        {hdc::train_mode::raw_sums, hdc::query_mode::integer},
        {hdc::train_mode::raw_sums, hdc::query_mode::binarized},
        {hdc::train_mode::binarized_images, hdc::query_mode::binarized},
    };
    for (const auto& combo : combos) {
        const core::uhd_model model =
            core::uhd_model::train(cfg, train, combo.tm, combo.qm);
        std::stringstream buffer;
        model.save(buffer);
        const core::uhd_model loaded = core::uhd_model::load(buffer);
        EXPECT_TRUE(loaded.snapshot() == model.snapshot())
            << "train_mode=" << static_cast<int>(combo.tm)
            << " query_mode=" << static_cast<int>(combo.qm);
    }
}

TEST(SnapshotRoundtrip, RoundtripBitIdenticalUnderEveryAdmissibleBackend) {
    // Belt and braces on top of the ctest env matrix: sweep the admissible
    // backends in-process and require the roundtrip identity under each,
    // plus cross-backend equality of the loaded snapshot (the read state is
    // a pure function of the data, whichever backend derived it).
    backend_reset reset;
    const auto train = data::make_synthetic_digits(100, 65);
    core::uhd_config cfg;
    cfg.dim = 512;
    std::vector<inference_snapshot> loaded_per_backend;
    for (const kernels::kernel_table* backend : kernels::admissible_backends()) {
        kernels::force_backend(backend->name);
        const core::uhd_model model = core::uhd_model::train(
            cfg, train, hdc::train_mode::raw_sums, hdc::query_mode::integer);
        std::stringstream buffer;
        model.save(buffer);
        const core::uhd_model loaded = core::uhd_model::load(buffer);
        EXPECT_TRUE(loaded.snapshot() == model.snapshot())
            << "backend=" << backend->name;
        loaded_per_backend.push_back(loaded.snapshot());
    }
    for (std::size_t b = 1; b < loaded_per_backend.size(); ++b) {
        EXPECT_TRUE(loaded_per_backend[b] == loaded_per_backend[0])
            << "backend " << b << " loaded a different snapshot than scalar";
    }
}

TEST(InferenceSnapshot, RejectsMismatchedQueries) {
    const auto train = data::make_synthetic_digits(60, 66);
    const auto enc = make_encoder(train, 256);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    const inference_snapshot snap = clf.snapshot();
    const std::vector<std::int32_t> wrong(128, 0);
    EXPECT_THROW((void)snap.predict_encoded(wrong), uhd::error);
    const std::vector<std::uint64_t> wrong_words(1, 0);
    std::vector<std::size_t> out(1);
    EXPECT_THROW(snap.predict_packed_block(wrong_words, 1, out), uhd::error);
}

} // namespace

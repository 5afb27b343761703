// Tests for the generic centroid classifier over both encoders, including
// training modes, query modes, online updates, and retraining.
#include <gtest/gtest.h>

#include "uhd/common/error.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/baseline_encoder.hpp"
#include "uhd/hdc/classifier.hpp"

namespace {

using namespace uhd;
using namespace uhd::hdc;

data::dataset tiny_digits(std::size_t count, std::uint64_t seed) {
    return data::make_synthetic_digits(count, seed);
}

TEST(Classifier, UhdLearnsAboveChance) {
    const auto train = tiny_digits(200, 1);
    const auto test = tiny_digits(100, 2);
    core::uhd_config cfg;
    cfg.dim = 512;
    const core::uhd_encoder enc(cfg, train.shape());
    hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::raw_sums,
                                         query_mode::integer);
    clf.fit(train);
    EXPECT_GT(clf.evaluate(test), 0.4); // chance is 0.1
}

TEST(Classifier, BaselineLearnsAboveChance) {
    const auto train = tiny_digits(200, 1);
    const auto test = tiny_digits(100, 2);
    baseline_config cfg;
    cfg.dim = 512;
    const baseline_encoder enc(cfg, train.shape());
    hd_classifier<baseline_encoder> clf(enc, 10);
    clf.fit(train);
    EXPECT_GT(clf.evaluate(test), 0.4);
}

TEST(Classifier, AllModeCombinationsProduceValidAccuracy) {
    const auto train = tiny_digits(100, 3);
    const auto test = tiny_digits(50, 4);
    core::uhd_config cfg;
    cfg.dim = 256;
    const core::uhd_encoder enc(cfg, train.shape());
    for (const train_mode tm : {train_mode::binarized_images, train_mode::raw_sums}) {
        for (const query_mode qm : {query_mode::binarized, query_mode::integer}) {
            hd_classifier<core::uhd_encoder> clf(enc, 10, tm, qm);
            clf.fit(train);
            const double accuracy = clf.evaluate(test);
            EXPECT_GE(accuracy, 0.0);
            EXPECT_LE(accuracy, 1.0);
            EXPECT_GT(accuracy, 0.1); // above chance for every combination
        }
    }
}

TEST(Classifier, PredictionsAreDeterministic) {
    const auto train = tiny_digits(80, 5);
    core::uhd_config cfg;
    cfg.dim = 256;
    const core::uhd_encoder enc(cfg, train.shape());
    hd_classifier<core::uhd_encoder> a(enc, 10);
    hd_classifier<core::uhd_encoder> b(enc, 10);
    a.fit(train);
    b.fit(train);
    for (std::size_t i = 0; i < train.size(); ++i) {
        EXPECT_EQ(a.predict(train.image(i)), b.predict(train.image(i)));
    }
}

TEST(Classifier, PartialFitAddsKnowledge) {
    const auto train = tiny_digits(60, 6);
    core::uhd_config cfg;
    cfg.dim = 256;
    const core::uhd_encoder enc(cfg, train.shape());
    hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::raw_sums,
                                         query_mode::integer);
    // Online training: one sample at a time (the paper's "dynamic" angle).
    for (std::size_t i = 0; i < train.size(); ++i) {
        clf.partial_fit(train.image(i), train.label(i));
    }
    EXPECT_GT(clf.evaluate(train), 0.4);
}

/// Encoder adapter that counts encode() calls — the classifier is generic
/// over the encoder, so this measures exactly how many times retrain and
/// friends hit the (expensive) encode path.
struct counting_encoder {
    const core::uhd_encoder* inner;
    mutable std::size_t encodes = 0;

    [[nodiscard]] std::size_t dim() const { return inner->dim(); }
    void encode(std::span<const std::uint8_t> image,
                std::span<std::int32_t> out) const {
        ++encodes;
        inner->encode(image, out);
    }
};

TEST(Classifier, RetrainEncodesEachImageExactlyOncePerEpoch) {
    const auto train = tiny_digits(120, 19);
    core::uhd_config cfg;
    cfg.dim = 64; // small D so some images stay misclassified
    const core::uhd_encoder enc(cfg, train.shape());
    const counting_encoder counted{&enc};
    hd_classifier<counting_encoder> clf(counted, 10, train_mode::raw_sums,
                                        query_mode::integer);
    clf.fit(train);
    counted.encodes = 0;
    const std::size_t updates = clf.retrain(train, 1);
    // The seed path encoded every misclassified image twice (once inside
    // predict, once again for the update).
    EXPECT_GT(updates, 0u) << "workload too easy to exercise the regression";
    EXPECT_EQ(counted.encodes, train.size());
}

TEST(Classifier, RetrainMatchesSeedSemantics) {
    // The single-encode retrain must produce the same model as the seed
    // formulation (predict, then re-encode on a miss): same update
    // sequence, same predictions. Integer mode, where both formulations
    // compare queries against the live accumulators, is emulated exactly
    // through the public load_state surface.
    const auto train = tiny_digits(100, 20);
    core::uhd_config cfg;
    cfg.dim = 128;
    const core::uhd_encoder enc(cfg, train.shape());
    hd_classifier<core::uhd_encoder> fast(enc, 10, train_mode::raw_sums,
                                          query_mode::integer);
    hd_classifier<core::uhd_encoder> seed(enc, 10, train_mode::raw_sums,
                                          query_mode::integer);
    fast.fit(train);
    seed.fit(train);
    fast.retrain(train, 2);
    // Seed-style epochs: predict (re-encoding internally), then encode
    // again for the update.
    std::vector<std::int32_t> scratch(enc.dim());
    for (int epoch = 0; epoch < 2; ++epoch) {
        std::size_t updates = 0;
        for (std::size_t i = 0; i < train.size(); ++i) {
            const std::size_t truth = train.label(i);
            const std::size_t predicted = seed.predict(train.image(i));
            if (predicted == truth) continue;
            enc.encode(train.image(i), scratch);
            ++updates;
            std::vector<accumulator> accs;
            for (std::size_t c = 0; c < 10; ++c) {
                accs.push_back(seed.class_accumulator(c));
            }
            accs[truth].add_values(scratch);
            accs[predicted].subtract_values(scratch);
            seed.load_state(std::move(accs));
        }
        if (updates == 0) break;
    }
    for (std::size_t i = 0; i < train.size(); ++i) {
        ASSERT_EQ(fast.predict(train.image(i)), seed.predict(train.image(i)))
            << "image " << i;
    }
}

TEST(Classifier, PartialFitKeepsEveryClassVectorConsistent) {
    // partial_fit re-binarizes only the touched class; after any interleaved
    // update sequence every class hypervector must still equal the sign of
    // its accumulator, and the packed memory row must match it.
    const auto train = tiny_digits(60, 18);
    core::uhd_config cfg;
    cfg.dim = 200; // non-multiple-of-64
    const core::uhd_encoder enc(cfg, train.shape());
    for (const train_mode tm : {train_mode::raw_sums, train_mode::binarized_images}) {
        hd_classifier<core::uhd_encoder> clf(enc, 10, tm, query_mode::binarized);
        for (std::size_t i = 0; i < train.size(); ++i) {
            clf.partial_fit(train.image(i), train.label(i));
        }
        for (std::size_t c = 0; c < 10; ++c) {
            const hypervector expected = clf.class_accumulator(c).sign();
            EXPECT_EQ(clf.class_hypervector(c), expected) << "class " << c;
            const auto row = clf.packed_class_memory().row(c);
            const auto words = expected.bits().words();
            for (std::size_t w = 0; w < row.size(); ++w) {
                EXPECT_EQ(row[w], words[w]) << "class " << c << " word " << w;
            }
        }
    }
}

TEST(Classifier, RetrainDoesNotDegradeTrainAccuracy) {
    const auto train = tiny_digits(150, 7);
    core::uhd_config cfg;
    cfg.dim = 512;
    const core::uhd_encoder enc(cfg, train.shape());
    hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::raw_sums,
                                         query_mode::integer);
    clf.fit(train);
    const double before = clf.evaluate(train);
    clf.retrain(train, 3);
    const double after = clf.evaluate(train);
    EXPECT_GE(after, before - 0.05);
}

TEST(Classifier, ClassVectorsHaveCorrectGeometry) {
    const auto train = tiny_digits(50, 8);
    core::uhd_config cfg;
    cfg.dim = 256;
    const core::uhd_encoder enc(cfg, train.shape());
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    for (std::size_t c = 0; c < 10; ++c) {
        EXPECT_EQ(clf.class_hypervector(c).dim(), 256u);
        EXPECT_EQ(clf.class_accumulator(c).dim(), 256u);
    }
    EXPECT_THROW((void)clf.class_hypervector(10), uhd::error);
    EXPECT_GT(clf.memory_bytes(), 0u);
}

TEST(Classifier, LoadStateRestoresModel) {
    const auto train = tiny_digits(60, 9);
    core::uhd_config cfg;
    cfg.dim = 256;
    const core::uhd_encoder enc(cfg, train.shape());
    hd_classifier<core::uhd_encoder> original(enc, 10);
    original.fit(train);

    std::vector<accumulator> state;
    for (std::size_t c = 0; c < 10; ++c) state.push_back(original.class_accumulator(c));
    hd_classifier<core::uhd_encoder> restored(enc, 10);
    restored.load_state(std::move(state));
    for (std::size_t i = 0; i < 20; ++i) {
        EXPECT_EQ(restored.predict(train.image(i)), original.predict(train.image(i)));
    }
}

TEST(Classifier, LoadStateValidation) {
    core::uhd_config cfg;
    cfg.dim = 256;
    const core::uhd_encoder enc(cfg, {28, 28, 1});
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    EXPECT_THROW(clf.load_state(std::vector<accumulator>(3, accumulator(256))),
                 uhd::error);
    EXPECT_THROW(clf.load_state(std::vector<accumulator>(10, accumulator(64))),
                 uhd::error);
}

TEST(Classifier, RejectsTooFewClasses) {
    core::uhd_config cfg;
    cfg.dim = 256;
    const core::uhd_encoder enc(cfg, {28, 28, 1});
    EXPECT_THROW((hd_classifier<core::uhd_encoder>(enc, 1)), uhd::error);
}

TEST(Classifier, EvaluateEmptyThrows) {
    core::uhd_config cfg;
    cfg.dim = 256;
    const core::uhd_encoder enc(cfg, {28, 28, 1});
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    data::dataset empty(data::image_shape{28, 28, 1}, 10);
    EXPECT_THROW((void)clf.evaluate(empty), uhd::error);
}

TEST(Classifier, ConfusionMatrixFilledDuringEvaluate) {
    const auto train = tiny_digits(100, 10);
    const auto test = tiny_digits(40, 11);
    core::uhd_config cfg;
    cfg.dim = 256;
    const core::uhd_encoder enc(cfg, train.shape());
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    data::confusion_matrix matrix(10);
    const double accuracy = clf.evaluate(test, &matrix);
    std::size_t recorded = 0;
    std::size_t correct = 0;
    for (std::size_t c = 0; c < 10; ++c) {
        for (std::size_t p = 0; p < 10; ++p) recorded += matrix.count(c, p);
        correct += matrix.count(c, c);
    }
    EXPECT_EQ(recorded, test.size());
    EXPECT_NEAR(static_cast<double>(correct) / static_cast<double>(test.size()),
                accuracy, 1e-12);
}

} // namespace

// Tests for the mini-batch parallel training engine: fit_parallel must be
// bit-identical to the sequential fit() for every thread count, lane range,
// chunking, and train_mode (class accumulators AND packed class rows), on
// both sides of the histogram path's size rule, and the pool retrain
// overload must match the sequential retrain exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "uhd/common/rng.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/baseline_encoder.hpp"
#include "uhd/hdc/classifier.hpp"
#include "uhd/hdc/trainer.hpp"

namespace {

using namespace uhd;
using namespace uhd::hdc;

template <typename Encoder>
void expect_identical_state(const hd_classifier<Encoder>& a,
                            const hd_classifier<Encoder>& b) {
    ASSERT_EQ(a.classes(), b.classes());
    for (std::size_t c = 0; c < a.classes(); ++c) {
        const auto va = a.class_accumulator(c).values();
        const auto vb = b.class_accumulator(c).values();
        ASSERT_EQ(va.size(), vb.size());
        for (std::size_t d = 0; d < va.size(); ++d) {
            ASSERT_EQ(va[d], vb[d]) << "class " << c << " dim " << d;
        }
        const auto ra = a.packed_class_memory().row(c);
        const auto rb = b.packed_class_memory().row(c);
        for (std::size_t w = 0; w < ra.size(); ++w) {
            ASSERT_EQ(ra[w], rb[w]) << "class " << c << " word " << w;
        }
    }
}

TEST(Trainer, FitParallelBitIdenticalAcrossThreadCountsAndModes) {
    const auto train = data::make_synthetic_digits(97, 5); // odd count: ragged chunks
    core::uhd_config cfg;
    cfg.dim = 200; // non-multiple-of-64 exercises the packed tail
    const core::uhd_encoder enc(cfg, train.shape());

    for (const train_mode tm : {train_mode::binarized_images, train_mode::raw_sums}) {
        hd_classifier<core::uhd_encoder> sequential(enc, 10, tm);
        sequential.fit(train);

        // No pool (inline chunk) first, then 1, 2, 7 workers and hardware
        // concurrency (thread_pool(0)).
        {
            hd_classifier<core::uhd_encoder> clf(enc, 10, tm);
            clf.fit_parallel(train, nullptr);
            expect_identical_state(sequential, clf);
        }
        for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                          std::size_t{7}, std::size_t{0}}) {
            thread_pool pool(workers);
            hd_classifier<core::uhd_encoder> clf(enc, 10, tm);
            clf.fit_parallel(train, &pool);
            expect_identical_state(sequential, clf);
        }
    }
}

TEST(Trainer, FitParallelMatchesFitAcrossSubBatchesAndPools) {
    // A lane bundles its range through the encoder's batch path: one
    // encode_add_batch over the range (raw_sums), walked in 32-image
    // sub-batches, or 32-image encode_sign_batch blocks (binarized_images).
    // Lane ranges of 1, 31, 32 and 33 images and a 70-image range with a
    // ragged tail, inline and on pools of 1-3 workers (2-4 lanes).
    const auto digits = data::make_synthetic_digits(70 * 4, 13);
    core::uhd_config cfg;
    cfg.dim = 200;
    const core::uhd_encoder enc(cfg, digits.shape());
    for (const std::size_t range : {1u, 31u, 32u, 33u, 70u}) {
        for (const std::size_t workers : {0u, 1u, 2u, 3u}) {
            data::dataset train(digits.shape(), digits.num_classes());
            for (std::size_t i = 0; i < range * (workers + 1); ++i) {
                train.add(digits.image(i), digits.label(i));
            }
            std::unique_ptr<thread_pool> pool;
            if (workers != 0) pool = std::make_unique<thread_pool>(workers);
            for (const train_mode tm : {train_mode::binarized_images, train_mode::raw_sums}) {
                SCOPED_TRACE(::testing::Message()
                             << "range " << range << ", workers " << workers << ", "
                             << (tm == train_mode::raw_sums ? "raw_sums" : "binarized_images"));
                hd_classifier<core::uhd_encoder> sequential(enc, 10, tm);
                sequential.fit(train);
                hd_classifier<core::uhd_encoder> clf(enc, 10, tm);
                clf.fit_parallel(train, pool.get());
                expect_identical_state(sequential, clf);
            }
        }
    }
}

/// The smallest set size the histogram path takes for `classes` x
/// `pixels` x `levels` (with small classes, so the 2^32 bound holds).
std::size_t histogram_threshold(std::size_t classes, std::size_t pixels, std::size_t levels) {
    std::size_t n = 1;
    while (!histogram_path_pays(n, classes, pixels, levels, n)) ++n;
    return n;
}

/// `n` random 8x8 images over `classes` labels, about a third of the
/// pixels at intensity 0 (level 0) and the rest uniform, so every level of
/// every quantization is hit. Label `empty` (when given) gets no image.
data::dataset random_images(std::size_t n, std::size_t classes, std::uint64_t seed,
                            std::optional<std::size_t> empty = std::nullopt) {
    const data::image_shape shape{8, 8, 1};
    data::dataset set(shape, classes);
    xoshiro256ss rng(seed);
    std::vector<std::uint8_t> image(shape.pixels());
    for (std::size_t i = 0; i < n; ++i) {
        for (std::uint8_t& v : image) {
            v = rng.next_below(3) == 0 ? 0 : static_cast<std::uint8_t>(rng.next_below(256));
        }
        std::size_t label = rng.next_below(classes);
        if (empty && label == *empty) label = (label + 1) % classes;
        set.add(image, label);
    }
    return set;
}

enum class bank_kind { stored, rematerialize, custom };

core::uhd_encoder make_encoder(bank_kind kind, unsigned levels, std::size_t dim,
                               core::binarize_policy policy, data::image_shape shape) {
    core::uhd_config cfg;
    cfg.dim = dim;
    cfg.quant_levels = levels;
    cfg.policy = policy;
    if (kind == bank_kind::rematerialize) cfg.bank = bank_mode::rematerialize;
    if (kind != bank_kind::custom) return core::uhd_encoder(cfg, shape);
    // A bank with no Sobol structure: every threshold uniform in [0, levels).
    xoshiro256ss rng(levels * 7919 + dim);
    std::vector<std::uint8_t> values(shape.pixels() * dim);
    for (std::uint8_t& v : values) v = static_cast<std::uint8_t>(rng.next_below(levels));
    return core::uhd_encoder(
        cfg, shape,
        ld::quantized_sobol_bank::from_raw(shape.pixels(), dim, levels, std::move(values)));
}

TEST(Trainer, HistogramSizeRuleBoundaries) {
    // 28x28 digits, 16 levels, 10 classes: 128 x 980 >= 10 x 784 x 16.
    EXPECT_FALSE(histogram_path_pays(979, 10, 784, 16, 98));
    EXPECT_TRUE(histogram_path_pays(980, 10, 784, 16, 98));
    EXPECT_TRUE(histogram_path_pays(30000, 10, 784, 16, 3000));
    // 4,096 classes over 16,384 images would need a 205 MB table.
    EXPECT_FALSE(histogram_path_pays(16384, 4096, 784, 16, 4));
    // The 2^32 bound on sum_p R: pixels x largest class must stay below it.
    const std::size_t largest = 0xFFFFFFFFu / 784; // 784 x largest < 2^32
    EXPECT_TRUE(histogram_path_pays(10 * largest, 10, 784, 16, largest));
    EXPECT_FALSE(histogram_path_pays(10 * largest, 10, 784, 16, largest + 1));
    EXPECT_FALSE(histogram_path_pays(0, 1, 784, 16, 0));
    EXPECT_EQ(histogram_threshold(3, 64, 16), 24u);
}

TEST(Trainer, HistogramPathMatchesFitOnBothSidesOfTheSizeRule) {
    // raw_sums on 8x8 images of 3 classes, so small sets cross the rule:
    // the last set size below it (per-image lanes) and the first one on it
    // (histogram path), for every bank mode, quantization, dimension and
    // binarize policy, on pools of 0-3 workers, and with class 1 empty in
    // every other case.
    const data::image_shape shape{8, 8, 1};
    std::size_t case_index = 0;
    for (const bank_kind kind : {bank_kind::stored, bank_kind::rematerialize, bank_kind::custom}) {
        for (const unsigned levels : {2u, 3u, 16u, 256u}) {
            for (const std::size_t dim : {std::size_t{64}, std::size_t{1088}}) {
                for (const core::binarize_policy policy :
                     {core::binarize_policy::mean_intensity, core::binarize_policy::half_inputs}) {
                    const core::uhd_encoder enc = make_encoder(kind, levels, dim, policy, shape);
                    const std::size_t workers = case_index % 4;
                    const bool empty_class = case_index % 2 == 1;
                    ++case_index;
                    std::unique_ptr<thread_pool> pool;
                    if (workers != 0) pool = std::make_unique<thread_pool>(workers);
                    const std::size_t at = histogram_threshold(3, shape.pixels(), levels);
                    for (const std::size_t n : {at - 1, at}) {
                        SCOPED_TRACE(::testing::Message()
                                     << "bank " << static_cast<int>(kind) << ", levels " << levels
                                     << ", D " << dim << ", policy " << static_cast<int>(policy)
                                     << ", workers " << workers << ", images " << n
                                     << (empty_class ? ", class 1 empty" : ""));
                        const auto train =
                            random_images(n, 3, 100 + case_index,
                                          empty_class ? std::optional<std::size_t>(1)
                                                      : std::nullopt);
                        EXPECT_EQ(histogram_path_pays(n, 3, shape.pixels(), levels, n), n == at);
                        hd_classifier<core::uhd_encoder> sequential(enc, 3, train_mode::raw_sums);
                        sequential.fit(train);
                        hd_classifier<core::uhd_encoder> clf(enc, 3, train_mode::raw_sums);
                        clf.fit_parallel(train, pool.get());
                        expect_identical_state(sequential, clf);
                    }
                }
            }
        }
    }
}

TEST(Trainer, HistogramPathMatchesFitAtWideDimensionAndEveryPool) {
    // D = 8192 (a bank of 16 chunks), well past the rule, inline and on
    // pools of 1-3 workers, both binarize policies.
    const data::image_shape shape{8, 8, 1};
    const auto train = random_images(200, 3, 31);
    for (const core::binarize_policy policy :
         {core::binarize_policy::mean_intensity, core::binarize_policy::half_inputs}) {
        const core::uhd_encoder enc = make_encoder(bank_kind::stored, 16, 8192, policy, shape);
        hd_classifier<core::uhd_encoder> sequential(enc, 3, train_mode::raw_sums);
        sequential.fit(train);
        for (const std::size_t workers : {0u, 1u, 2u, 3u}) {
            SCOPED_TRACE(::testing::Message() << "policy " << static_cast<int>(policy)
                                              << ", workers " << workers);
            std::unique_ptr<thread_pool> pool;
            if (workers != 0) pool = std::make_unique<thread_pool>(workers);
            hd_classifier<core::uhd_encoder> clf(enc, 3, train_mode::raw_sums);
            clf.fit_parallel(train, pool.get());
            expect_identical_state(sequential, clf);
        }
    }
}

TEST(Trainer, HistogramPathMatchesFitOnTwoThousandDigits) {
    // A perfbench-shaped set: 28x28 digits, 10 classes, on a pool of 2
    // (3 lanes, so lane boundaries fall between classes 2|3 and 6|7), onto
    // state that partial_fit already built, and with more model classes
    // than the set has (classes 10 and 11 stay empty).
    const auto stream = data::make_synthetic_digits(20, 40);
    const auto train = data::make_synthetic_digits(2000, 41);
    ASSERT_TRUE(histogram_path_pays(train.size(), 12, 784, 16, 2000));
    core::uhd_config cfg;
    cfg.dim = 256;
    const core::uhd_encoder enc(cfg, train.shape());
    hd_classifier<core::uhd_encoder> sequential(enc, 12, train_mode::raw_sums);
    hd_classifier<core::uhd_encoder> parallel(enc, 12, train_mode::raw_sums);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        sequential.partial_fit(stream.image(i), stream.label(i));
        parallel.partial_fit(stream.image(i), stream.label(i));
    }
    sequential.fit(train);
    thread_pool pool(2);
    parallel.fit_parallel(train, &pool);
    expect_identical_state(sequential, parallel);
}

TEST(Trainer, FitParallelWorksForMinimalContractEncoders) {
    // baseline_encoder has no encode_batch: the trainer must fall back to
    // the per-image path and still match the sequential fit.
    const auto train = data::make_synthetic_digits(40, 7);
    baseline_config cfg;
    cfg.dim = 256;
    const baseline_encoder enc(cfg, train.shape());
    hd_classifier<baseline_encoder> sequential(enc, 10);
    sequential.fit(train);

    thread_pool pool(2);
    hd_classifier<baseline_encoder> clf(enc, 10);
    clf.fit_parallel(train, &pool);
    expect_identical_state(sequential, clf);
}

TEST(Trainer, FitParallelAccumulatesOntoExistingState) {
    // fit() bundles into whatever state exists; fit_parallel must do the
    // same so online (partial_fit) and batch training compose.
    const auto stream = data::make_synthetic_digits(20, 8);
    const auto batch = data::make_synthetic_digits(50, 9);
    core::uhd_config cfg;
    cfg.dim = 128;
    const core::uhd_encoder enc(cfg, stream.shape());

    hd_classifier<core::uhd_encoder> sequential(enc, 10);
    hd_classifier<core::uhd_encoder> parallel(enc, 10);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        sequential.partial_fit(stream.image(i), stream.label(i));
        parallel.partial_fit(stream.image(i), stream.label(i));
    }
    sequential.fit(batch);
    thread_pool pool(3);
    parallel.fit_parallel(batch, &pool);
    expect_identical_state(sequential, parallel);
}

TEST(Trainer, BatchTrainerDeltaMatchesSequentialBundle) {
    // The trainer's accumulate() is a pure delta: summing it over an empty
    // model must equal fit() from scratch (both train modes).
    const auto train = data::make_synthetic_digits(33, 10);
    core::uhd_config cfg;
    cfg.dim = 192;
    const core::uhd_encoder enc(cfg, train.shape());
    for (const train_mode tm : {train_mode::binarized_images, train_mode::raw_sums}) {
        hd_classifier<core::uhd_encoder> sequential(enc, 10, tm);
        sequential.fit(train);

        const batch_trainer<core::uhd_encoder> trainer(enc, 10, tm);
        thread_pool pool(4);
        const std::vector<accumulator> delta = trainer.accumulate(train, &pool);
        ASSERT_EQ(delta.size(), 10u);
        for (std::size_t c = 0; c < delta.size(); ++c) {
            const auto want = sequential.class_accumulator(c).values();
            const auto got = delta[c].values();
            ASSERT_EQ(want.size(), got.size());
            for (std::size_t d = 0; d < want.size(); ++d) {
                ASSERT_EQ(want[d], got[d]) << "class " << c << " dim " << d;
            }
        }
    }
}

TEST(Trainer, EmptyDatasetIsANoOp) {
    const data::dataset empty(data::image_shape{8, 8, 1}, 10);
    core::uhd_config cfg;
    cfg.dim = 128;
    const core::uhd_encoder enc(cfg, empty.shape());
    thread_pool pool(2);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit_parallel(empty, &pool);
    for (std::size_t c = 0; c < clf.classes(); ++c) {
        for (const std::int32_t v : clf.class_accumulator(c).values()) {
            ASSERT_EQ(v, 0);
        }
    }
}

TEST(Trainer, ParallelRetrainMatchesSequentialRetrain) {
    // Binarized query mode: within an epoch predictions run against the
    // epoch-start packed memory, so the mini-batch parallel retrain is
    // bit-identical to the sequential one — updates count included.
    const auto train = data::make_synthetic_digits(80, 11);
    core::uhd_config cfg;
    cfg.dim = 64; // small D so some images stay misclassified
    const core::uhd_encoder enc(cfg, train.shape());

    hd_classifier<core::uhd_encoder> sequential(enc, 10, train_mode::raw_sums,
                                                query_mode::binarized);
    sequential.fit(train);
    hd_classifier<core::uhd_encoder> parallel(enc, 10, train_mode::raw_sums,
                                              query_mode::binarized);
    parallel.fit(train);

    const std::size_t updates_seq = sequential.retrain(train, 2);
    thread_pool pool(3);
    const std::size_t updates_par = parallel.retrain(train, 2, &pool, 17);
    EXPECT_EQ(updates_seq, updates_par);
    expect_identical_state(sequential, parallel);
}

TEST(Trainer, IntegerModeParallelRetrainFallsBackToSequential) {
    const auto train = data::make_synthetic_digits(50, 12);
    core::uhd_config cfg;
    cfg.dim = 64;
    const core::uhd_encoder enc(cfg, train.shape());

    hd_classifier<core::uhd_encoder> sequential(enc, 10, train_mode::raw_sums,
                                                query_mode::integer);
    sequential.fit(train);
    hd_classifier<core::uhd_encoder> pooled(enc, 10, train_mode::raw_sums,
                                            query_mode::integer);
    pooled.fit(train);

    thread_pool pool(2);
    const std::size_t updates_seq = sequential.retrain(train, 1);
    const std::size_t updates_par = pooled.retrain(train, 1, &pool);
    EXPECT_EQ(updates_seq, updates_par);
    expect_identical_state(sequential, pooled);
}

} // namespace

// Tests for the one associative-search primitive, the query-block Hamming
// kernels: every admissible backend (the pinned scalar one included)
// against an independent in-test oracle over ragged query/row/word counts,
// n_queries = 1 — the single-query search — among them; and the
// bit-identity of every block read path — nearest_block, the
// stage-synchronized block cascade, predict_block, predict_batch/evaluate,
// and the serve engine's one-call micro-batch drain — with its one-query
// counterpart.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "uhd/common/kernels.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/class_memory.hpp"
#include "uhd/hdc/classifier.hpp"
#include "uhd/hdc/dynamic_query.hpp"
#include "uhd/hdc/inference_snapshot.hpp"
#include "uhd/serve/inference_engine.hpp"

namespace {

using namespace uhd;
using namespace uhd::hdc;

/// RAII reset: leave the process on the environment-selected backend.
struct backend_reset {
    ~backend_reset() {
        const std::string_view env = kernels::backend_override();
        kernels::force_backend(env.empty() ? "auto" : env);
    }
};

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint64_t> out(n);
    for (std::uint64_t& w : out) w = rng();
    return out;
}

/// Independent in-test oracle: per-pair XOR+popcount, no kernels involved.
std::uint64_t pair_distance(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t from, std::size_t to) {
    std::uint64_t d = 0;
    for (std::size_t w = from; w < to; ++w) {
        d += static_cast<std::uint64_t>(std::popcount(a[w] ^ b[w]));
    }
    return d;
}

/// Independent first-wins argmin + runner-up of one query over the first
/// `prefix` words of every row, built on pair_distance.
kernels::argmin2_result oracle_argmin2(const std::uint64_t* query,
                                       const std::uint64_t* rows, std::size_t words,
                                       std::size_t prefix, std::size_t n_rows) {
    kernels::argmin2_result best{0, ~std::uint64_t{0}, ~std::uint64_t{0}};
    for (std::size_t r = 0; r < n_rows; ++r) {
        const std::uint64_t d = pair_distance(query, rows + r * words, 0, prefix);
        if (d < best.distance) {
            best = {r, d, best.distance};
        } else if (d < best.runner_up) {
            best.runner_up = d;
        }
    }
    return best;
}

// Ragged shapes: tails in every tile dimension (queries % 4, rows % 2,
// words % the 256/512-bit steps) plus the degenerate 1-query/1-row cases.
constexpr std::size_t kQueryCounts[] = {1, 3, 4, 5, 7, 8, 17};
constexpr std::size_t kRowCounts[] = {1, 2, 3, 5};
constexpr std::size_t kWordCounts[] = {1, 3, 8, 11, 19};

TEST(BlockKernels, BlockExtendMatchesPairOracleOnEveryAdmissibleBackend) {
    backend_reset reset;
    for (const kernels::kernel_table* backend : kernels::admissible_backends()) {
        kernels::force_backend(backend->name);
        std::uint64_t seed = 1;
        for (const std::size_t n_queries : kQueryCounts) {
            for (const std::size_t n_rows : kRowCounts) {
                for (const std::size_t words : kWordCounts) {
                    const auto queries = random_words(n_queries * words, ++seed);
                    const auto rows = random_words(n_rows * words, ++seed);
                    // Split the word range in two extends: the distances must
                    // accumulate exactly like the cascade uses them.
                    const std::size_t mid = words / 2;
                    std::vector<std::uint64_t> got(n_queries * n_rows, 7);
                    kernels::hamming_block_extend(queries.data(), words, n_queries,
                                                  rows.data(), words, 0, mid,
                                                  n_rows, got.data());
                    kernels::hamming_block_extend(queries.data(), words, n_queries,
                                                  rows.data(), words, mid, words,
                                                  n_rows, got.data());
                    for (std::size_t q = 0; q < n_queries; ++q) {
                        for (std::size_t r = 0; r < n_rows; ++r) {
                            EXPECT_EQ(got[q * n_rows + r],
                                      7 + pair_distance(queries.data() + q * words,
                                                        rows.data() + r * words, 0,
                                                        words))
                                << "backend=" << backend->name << " q=" << q
                                << " r=" << r << " words=" << words;
                        }
                    }
                }
            }
        }
    }
}

TEST(BlockKernels, BlockArgmin2MatchesPairOracleOnEveryAdmissibleBackend) {
    backend_reset reset;
    for (const kernels::kernel_table* backend : kernels::admissible_backends()) {
        kernels::force_backend(backend->name);
        std::uint64_t seed = 100;
        for (const std::size_t n_queries : kQueryCounts) {
            for (const std::size_t n_rows : kRowCounts) {
                for (const std::size_t words : kWordCounts) {
                    // Prefix windows cover the cascade's stages: a short
                    // prefix, a mid one, and the full row.
                    for (const std::size_t prefix :
                         {std::size_t{1}, (words + 1) / 2, words}) {
                        const auto queries = random_words(n_queries * words, ++seed);
                        auto rows = random_words(n_rows * words, ++seed);
                        // The last row repeats the first every third case, so
                        // ties between distant rows meet the first-wins rule.
                        if (n_rows > 1 && seed % 3 == 0) {
                            std::copy_n(rows.begin(), words,
                                        rows.end() - static_cast<std::ptrdiff_t>(words));
                        }
                        std::vector<kernels::argmin2_result> got(n_queries);
                        kernels::hamming_block_argmin2_prefix(
                            queries.data(), words, n_queries, rows.data(), words,
                            prefix, n_rows, got.data());
                        for (std::size_t q = 0; q < n_queries; ++q) {
                            const kernels::argmin2_result want =
                                oracle_argmin2(queries.data() + q * words,
                                               rows.data(), words, prefix, n_rows);
                            EXPECT_EQ(got[q].index, want.index)
                                << "backend=" << backend->name << " q=" << q;
                            EXPECT_EQ(got[q].distance, want.distance);
                            EXPECT_EQ(got[q].runner_up, want.runner_up);
                        }
                    }
                }
            }
        }
    }
}

TEST(BlockKernels, TiedRowsResolveFirstWins) {
    backend_reset reset;
    // All-identical rows: every distance ties, so index must be 0 and the
    // runner-up must equal the winner for every backend and query slot.
    const std::size_t words = 9, n_rows = 5, n_queries = 6;
    const auto query_block = random_words(n_queries * words, 42);
    std::vector<std::uint64_t> rows(n_rows * words);
    const auto one_row = random_words(words, 43);
    for (std::size_t r = 0; r < n_rows; ++r) {
        std::copy(one_row.begin(), one_row.end(), rows.begin() + r * words);
    }
    for (const kernels::kernel_table* backend : kernels::admissible_backends()) {
        kernels::force_backend(backend->name);
        std::vector<kernels::argmin2_result> got(n_queries);
        kernels::hamming_block_argmin2_prefix(query_block.data(), words, n_queries,
                                              rows.data(), words, words, n_rows,
                                              got.data());
        for (std::size_t q = 0; q < n_queries; ++q) {
            EXPECT_EQ(got[q].index, 0u) << "backend=" << backend->name;
            EXPECT_EQ(got[q].runner_up, got[q].distance);
        }
    }
}

// --- block read paths -----------------------------------------------------

core::uhd_encoder make_encoder(const data::dataset& set, std::size_t dim) {
    core::uhd_config cfg;
    cfg.dim = dim;
    return core::uhd_encoder(cfg, set.shape());
}

TEST(BlockReadPaths, NearestBlockBitIdenticalToNearest) {
    backend_reset reset;
    const auto train = data::make_synthetic_digits(80, 31);
    const auto test = data::make_synthetic_digits(37, 32); // odd count: ragged
    const auto enc = make_encoder(train, 512);
    hd_classifier<core::uhd_encoder> clf(enc, train.num_classes());
    clf.fit(train);
    const class_memory& mem = clf.packed_class_memory();
    const std::size_t words = mem.words_per_class();

    // Pack the whole test set into one contiguous query block.
    std::vector<std::uint64_t> packed(test.size() * words);
    std::vector<std::int32_t> encoded(enc.dim());
    for (std::size_t i = 0; i < test.size(); ++i) {
        enc.encode(test.image(i), encoded);
        kernels::sign_binarize(encoded.data(), encoded.size(),
                               packed.data() + i * words);
    }
    for (const kernels::kernel_table* backend : kernels::admissible_backends()) {
        kernels::force_backend(backend->name);
        std::vector<std::size_t> got(test.size());
        std::vector<std::uint64_t> got_distances(test.size());
        mem.nearest_block(packed, test.size(), got, got_distances.data());
        for (std::size_t i = 0; i < test.size(); ++i) {
            std::uint64_t want_distance = 0;
            const std::size_t want = mem.nearest(
                std::span<const std::uint64_t>(packed.data() + i * words, words),
                &want_distance);
            EXPECT_EQ(got[i], want) << "backend=" << backend->name << " i=" << i;
            EXPECT_EQ(got_distances[i], want_distance);
        }
    }
}

TEST(BlockReadPaths, AnswerBlockBitIdenticalToAnswerIncludingStats) {
    backend_reset reset;
    const auto train = data::make_synthetic_digits(120, 33);
    const auto test = data::make_synthetic_digits(41, 34);
    const auto enc = make_encoder(train, 2048); // deep enough for a real ladder
    hd_classifier<core::uhd_encoder> clf(enc, train.num_classes());
    clf.fit(train);
    const class_memory& mem = clf.packed_class_memory();
    const std::size_t words = mem.words_per_class();
    const dynamic_query_policy policy = clf.calibrate_dynamic(train, 0.9);

    std::vector<std::uint64_t> packed(test.size() * words);
    std::vector<std::int32_t> encoded(enc.dim());
    for (std::size_t i = 0; i < test.size(); ++i) {
        enc.encode(test.image(i), encoded);
        kernels::sign_binarize(encoded.data(), encoded.size(),
                               packed.data() + i * words);
    }
    for (const kernels::kernel_table* backend : kernels::admissible_backends()) {
        kernels::force_backend(backend->name);
        std::vector<std::size_t> got(test.size());
        std::vector<dynamic_query_stats> got_stats(test.size());
        policy.answer_block(mem, packed, test.size(), got, got_stats);
        bool any_early = false;
        for (std::size_t i = 0; i < test.size(); ++i) {
            dynamic_query_stats want_stats;
            const std::size_t want = policy.answer(
                mem,
                std::span<const std::uint64_t>(packed.data() + i * words, words),
                &want_stats);
            EXPECT_EQ(got[i], want) << "backend=" << backend->name << " i=" << i;
            EXPECT_EQ(got_stats[i].exit_stage, want_stats.exit_stage);
            EXPECT_EQ(got_stats[i].window_words, want_stats.window_words);
            EXPECT_EQ(got_stats[i].words_scanned, want_stats.words_scanned);
            if (got_stats[i].exit_stage + 1 < policy.stages().size()) {
                any_early = true;
            }
        }
        // The calibrated ladder must actually exercise the compaction path
        // (mixed exits), or this test would only cover the all-survive case.
        EXPECT_TRUE(any_early) << "calibration produced no early exits";
    }
}

TEST(BlockReadPaths, PredictBlockMatchesPredictEncodedInBothModes) {
    backend_reset reset;
    const auto train = data::make_synthetic_digits(80, 35);
    const auto test = data::make_synthetic_digits(23, 36);
    const auto enc = make_encoder(train, 512);
    for (const query_mode mode : {query_mode::binarized, query_mode::integer}) {
        hd_classifier<core::uhd_encoder> clf(
            enc, train.num_classes(),
            mode == query_mode::integer ? train_mode::raw_sums
                                        : train_mode::binarized_images,
            mode);
        clf.fit(train);
        const inference_snapshot snap = clf.snapshot();
        std::vector<std::int32_t> block(test.size() * enc.dim());
        for (std::size_t i = 0; i < test.size(); ++i) {
            enc.encode(test.image(i),
                       std::span<std::int32_t>(block.data() + i * enc.dim(),
                                               enc.dim()));
        }
        std::vector<std::size_t> got(test.size());
        snap.predict_block(block, test.size(), got);
        for (std::size_t i = 0; i < test.size(); ++i) {
            EXPECT_EQ(got[i],
                      snap.predict_encoded(std::span<const std::int32_t>(
                          block.data() + i * enc.dim(), enc.dim())))
                << "mode=" << static_cast<int>(mode) << " i=" << i;
        }
    }
}

TEST(BlockReadPaths, PredictBatchAndEvaluateMatchPerImagePredict) {
    backend_reset reset;
    // 67 images: not a multiple of the 32-image block, so the ragged last
    // block of predict_batch is on the line; 2 pool threads split it again.
    const auto train = data::make_synthetic_digits(100, 37);
    const auto test = data::make_synthetic_digits(67, 38);
    const auto enc = make_encoder(train, 512);
    hd_classifier<core::uhd_encoder> clf(enc, train.num_classes());
    clf.fit(train);

    std::vector<std::size_t> want(test.size());
    for (std::size_t i = 0; i < test.size(); ++i) {
        want[i] = clf.predict(test.image(i));
    }
    EXPECT_EQ(clf.predict_batch(test), want);
    thread_pool pool(2);
    EXPECT_EQ(clf.predict_batch(test, &pool), want);

    std::size_t correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
        if (want[i] == test.label(i)) ++correct;
    }
    const double want_accuracy =
        static_cast<double>(correct) / static_cast<double>(test.size());
    EXPECT_EQ(clf.evaluate(test), want_accuracy);
    EXPECT_EQ(clf.evaluate(test, nullptr, &pool), want_accuracy);
}

// --- serve engine block drain ---------------------------------------------

TEST(BlockServe, EngineBlockDrainBitIdenticalUnderConcurrentPublishing) {
    const auto base = data::make_synthetic_digits(100, 91);
    const auto stream = data::make_synthetic_digits(120, 92);
    const auto test = data::make_synthetic_digits(40, 93);
    const auto enc = make_encoder(base, 512);
    hd_classifier<core::uhd_encoder> trainer(enc, 10);
    trainer.fit(base);
    serve::engine_options opts;
    opts.workers = 2;
    opts.max_batch = 8;
    serve::inference_engine engine(trainer.snapshot(), opts);

    std::vector<std::vector<std::int32_t>> pool_queries;
    for (std::size_t i = 0; i < test.size(); ++i) {
        std::vector<std::int32_t> q(enc.dim());
        enc.encode(test.image(i), q);
        pool_queries.push_back(std::move(q));
    }
    // Clients hammer the block drain while the trainer publishes snapshots;
    // every answer must be a valid class (the bit-identity against the final
    // state is checked quiesced below).
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
            for (std::size_t q = 0; q < 100; ++q) {
                ASSERT_LT(engine.predict(pool_queries[(c + q) % pool_queries.size()]),
                          10u);
            }
        });
    }
    std::thread trainer_thread([&] {
        for (std::size_t i = 0; i < stream.size(); ++i) {
            trainer.partial_fit(stream.image(i), stream.label(i));
            if (i % 15 == 14) engine.publish(trainer.snapshot());
        }
        engine.publish(trainer.snapshot());
    });
    for (auto& t : clients) t.join();
    trainer_thread.join();

    for (const auto& q : pool_queries) {
        EXPECT_EQ(engine.predict(q), trainer.predict_encoded(q));
    }
    engine.stop();
    const serve::serve_stats stats = engine.stats();
    // Binarized mode: every drained batch is answered with exactly one
    // block-kernel call, so utilization is the average micro-batch size.
    EXPECT_EQ(stats.kernel_calls, stats.batches);
    EXPECT_GE(stats.block_utilization(), 1.0);
    EXPECT_LE(stats.block_utilization(),
              static_cast<double>(stats.max_batch_observed));
}

TEST(BlockServe, DynamicEngineBlockDrainMatchesDirectCascade) {
    const auto train = data::make_synthetic_digits(100, 94);
    const auto test = data::make_synthetic_digits(30, 95);
    const auto enc = make_encoder(train, 1024);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    const dynamic_query_policy policy = clf.calibrate_dynamic(train, 0.95);
    serve::engine_options opts;
    opts.workers = 2;
    opts.max_batch = 8;
    serve::inference_engine engine(clf.snapshot(), policy, opts);
    // Saturate the queue so real multi-request batches form, then compare
    // every answer with the direct single-query cascade.
    std::vector<std::future<std::size_t>> futures;
    std::vector<std::vector<std::int32_t>> queries;
    for (std::size_t i = 0; i < test.size(); ++i) {
        std::vector<std::int32_t> q(enc.dim());
        enc.encode(test.image(i), q);
        queries.push_back(q);
        futures.push_back(engine.submit(std::move(q)));
    }
    for (std::size_t i = 0; i < test.size(); ++i) {
        EXPECT_EQ(futures[i].get(),
                  clf.predict_dynamic_encoded(queries[i], policy));
    }
    engine.stop();
    EXPECT_EQ(engine.stats().kernel_calls, engine.stats().batches);
}

} // namespace

// Tests for the serve layer: the micro-batch request queue, engine
// bit-identity with the direct snapshot read paths, stats accounting, and
// concurrent clients racing an online trainer that publishes snapshots.
// The concurrency suites are the ThreadSanitizer targets CI runs under
// -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "uhd/common/error.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/classifier.hpp"
#include "uhd/serve/inference_engine.hpp"
#include "uhd/serve/request_queue.hpp"

namespace {

using namespace uhd;
using namespace uhd::hdc;
using serve::engine_options;
using serve::inference_engine;
using serve::micro_batch_queue;

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

// --- micro_batch_queue ----------------------------------------------------

TEST(MicroBatchQueue, DrainsInBatchesUpToTheCap) {
    micro_batch_queue<int> queue(64);
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(queue.push(i));
    std::vector<int> batch;
    EXPECT_EQ(queue.pop_batch(batch, 4), 4u);
    EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(queue.pop_batch(batch, 100), 6u); // the rest, FIFO
    EXPECT_EQ(batch.front(), 4);
    EXPECT_EQ(batch.back(), 9);
}

TEST(MicroBatchQueue, CloseDrainsBacklogThenSignalsShutdown) {
    micro_batch_queue<int> queue(8);
    ASSERT_TRUE(queue.push(1));
    ASSERT_TRUE(queue.push(2));
    queue.close();
    EXPECT_FALSE(queue.push(3)); // post-close pushes are refused
    std::vector<int> batch;
    EXPECT_EQ(queue.pop_batch(batch, 8), 2u); // backlog still served
    EXPECT_EQ(queue.pop_batch(batch, 8), 0u); // then the exit signal
}

TEST(MicroBatchQueue, BlockedProducerUnblocksOnDrain) {
    micro_batch_queue<int> queue(2);
    ASSERT_TRUE(queue.push(1));
    ASSERT_TRUE(queue.push(2));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        ASSERT_TRUE(queue.push(3)); // blocks until a slot frees
        pushed.store(true);
    });
    std::vector<int> batch;
    EXPECT_EQ(queue.pop_batch(batch, 1), 1u);
    producer.join();
    EXPECT_TRUE(pushed.load());
    queue.close();
}

TEST(MicroBatchQueue, BlockedProducerUnblocksOnClose) {
    micro_batch_queue<int> queue(1);
    ASSERT_TRUE(queue.push(1));
    std::thread producer([&] {
        EXPECT_FALSE(queue.push(2)); // full, then closed: refused
    });
    // Give the producer a moment to block, then close.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.close();
    producer.join();
}

// --- inference_engine: identity and stats ---------------------------------

TEST(InferenceEngine, AnswersMatchDirectSnapshotPredictions) {
    const auto train = data::make_synthetic_digits(150, 71);
    const auto test = data::make_synthetic_digits(80, 72);
    const auto enc = make_encoder(train);
    for (const query_mode qm : {query_mode::binarized, query_mode::integer}) {
        hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::raw_sums, qm);
        clf.fit(train);
        engine_options opts;
        opts.workers = 2;
        opts.max_batch = 8;
        inference_engine engine(clf.snapshot(), opts);
        std::vector<std::future<std::size_t>> answers;
        for (std::size_t i = 0; i < test.size(); ++i) {
            answers.push_back(engine.submit(encode_one(enc, test, i)));
        }
        for (std::size_t i = 0; i < test.size(); ++i) {
            EXPECT_EQ(answers[i].get(),
                      clf.predict_encoded(encode_one(enc, test, i)))
                << "mode=" << static_cast<int>(qm) << " query=" << i;
        }
    }
}

TEST(InferenceEngine, DynamicPolicyEngineMatchesPredictDynamic) {
    const auto train = data::make_synthetic_digits(150, 73);
    const auto test = data::make_synthetic_digits(60, 74);
    const auto enc = make_encoder(train, 1024);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    const dynamic_query_policy policy = clf.calibrate_dynamic(train, 0.95);
    inference_engine engine(clf.snapshot(), policy);
    for (std::size_t i = 0; i < test.size(); ++i) {
        const auto encoded = encode_one(enc, test, i);
        EXPECT_EQ(engine.predict(encoded),
                  clf.predict_dynamic_encoded(encoded, policy));
    }
}

TEST(InferenceEngine, DynamicPolicyOverIntegerSnapshotServesCascadeAnswers) {
    // The documented mode/policy interaction: a policy-configured engine
    // answers from the packed memory regardless of the snapshot's
    // query_mode — exactly predict_dynamic's semantics, never a silent
    // third behavior.
    const auto train = data::make_synthetic_digits(150, 78);
    const auto test = data::make_synthetic_digits(60, 79);
    const auto enc = make_encoder(train, 1024);
    hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::raw_sums,
                                         query_mode::integer);
    clf.fit(train);
    const dynamic_query_policy policy = clf.calibrate_dynamic(train, 0.95);
    inference_engine engine(clf.snapshot(), policy);
    for (std::size_t i = 0; i < test.size(); ++i) {
        const auto encoded = encode_one(enc, test, i);
        EXPECT_EQ(engine.predict(encoded),
                  clf.predict_dynamic_encoded(encoded, policy));
    }
}

TEST(InferenceEngine, StatsAccountForEveryQueryAndSwap) {
    const auto train = data::make_synthetic_digits(100, 75);
    const auto enc = make_encoder(train, 256);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    engine_options opts;
    opts.workers = 2;
    opts.max_batch = 4;
    inference_engine engine(clf.snapshot(), opts);
    const std::size_t queries = 50;
    for (std::size_t i = 0; i < queries; ++i) {
        (void)engine.predict(encode_one(enc, train, i % train.size()));
    }
    clf.partial_fit(train.image(0), train.label(0));
    engine.publish(clf.snapshot());
    engine.publish(clf.snapshot());
    engine.stop(); // quiesce: counters are exact afterwards
    const serve::serve_stats stats = engine.stats();
    EXPECT_EQ(stats.queries, queries);
    EXPECT_EQ(stats.snapshot_swaps, 2u);
    EXPECT_GE(stats.batches, 1u);
    EXPECT_LE(stats.batches, stats.queries);
    EXPECT_GE(stats.max_batch_observed, 1u);
    EXPECT_LE(stats.max_batch_observed, opts.max_batch);
    EXPECT_EQ(stats.snapshot_version, clf.snapshot().version());
}

TEST(InferenceEngine, CompletionSeesItsOwnMicroBatchCounted) {
    // A worker counts a micro-batch before it delivers any answer from it:
    // a client that has read its n-th reply and then asks for stats must
    // see at least n queries. One worker delivers in order, so the n-th
    // callback to run needs queries >= n (and raw_queries >= its raw count).
    const auto train = data::make_synthetic_digits(60, 79);
    const auto enc = make_encoder(train, 256);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    engine_options opts;
    opts.workers = 1;
    opts.max_batch = 8;
    opts.encoder = &enc;
    inference_engine engine(clf.snapshot(), opts);
    std::atomic<std::size_t> delivered{0};
    std::atomic<std::size_t> delivered_raw{0};
    std::atomic<std::size_t> undercounted{0};
    const auto callback = [&](bool raw) {
        return [&, raw](std::size_t, std::uint64_t, std::exception_ptr error) {
            const std::size_t seen = delivered.fetch_add(1) + 1;
            const std::size_t seen_raw = delivered_raw.fetch_add(raw ? 1 : 0) +
                                         (raw ? 1 : 0);
            const serve::serve_stats stats = engine.stats();
            if (error != nullptr || stats.queries < seen ||
                stats.raw_queries < seen_raw) {
                undercounted.fetch_add(1);
            }
        };
    };
    const std::size_t rounds = 24;
    for (std::size_t i = 0; i < rounds; ++i) {
        auto encoded = encode_one(enc, train, i);
        ASSERT_TRUE(engine.try_submit(encoded, callback(false)));
        std::vector<std::uint8_t> raw(train.image(i).begin(), train.image(i).end());
        ASSERT_TRUE(engine.try_submit_raw(raw, callback(true)));
    }
    engine.stop(); // drains: every callback has run
    EXPECT_EQ(delivered.load(), 2 * rounds);
    EXPECT_EQ(undercounted.load(), 0u);
}

TEST(InferenceEngine, RejectsBadQueriesAndBadPublishes) {
    const auto train = data::make_synthetic_digits(60, 76);
    const auto enc = make_encoder(train, 256);
    const auto enc_other = make_encoder(train, 512);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    inference_engine engine(clf.snapshot());
    EXPECT_THROW((void)engine.submit(std::vector<std::int32_t>(100, 0)), uhd::error);
    // Geometry and mode are pinned at construction.
    hd_classifier<core::uhd_encoder> other(enc_other, 10);
    other.fit(train);
    EXPECT_THROW(engine.publish(other.snapshot()), uhd::error);
    hd_classifier<core::uhd_encoder> integer_clf(enc, 10, train_mode::raw_sums,
                                                 query_mode::integer);
    integer_clf.fit(train);
    EXPECT_THROW(engine.publish(integer_clf.snapshot()), uhd::error);
    engine.stop();
    EXPECT_THROW((void)engine.submit(encode_one(enc, train, 0)), uhd::error);
}

TEST(InferenceEngine, MismatchedDynamicPolicyFailsAtConstruction) {
    const auto train = data::make_synthetic_digits(60, 77);
    const auto enc = make_encoder(train, 256);
    const auto enc_wide = make_encoder(train, 1024);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    hd_classifier<core::uhd_encoder> wide(enc_wide, 10);
    clf.fit(train);
    wide.fit(train);
    const dynamic_query_policy wide_policy =
        dynamic_query_policy::full_scan(wide.packed_class_memory());
    EXPECT_THROW(inference_engine(clf.snapshot(), wide_policy), uhd::error);
}

// --- concurrent serving while learning (the TSan targets) -----------------

TEST(InferenceEngineConcurrent, ServesWhileTrainerPublishes) {
    const auto base = data::make_synthetic_digits(100, 81);
    const auto stream = data::make_synthetic_digits(200, 82);
    const auto test = data::make_synthetic_digits(40, 83);
    const auto enc = make_encoder(base);
    hd_classifier<core::uhd_encoder> trainer(enc, 10, train_mode::raw_sums,
                                             query_mode::binarized);
    trainer.fit(base);
    engine_options opts;
    opts.workers = 2;
    opts.max_batch = 8;
    inference_engine engine(trainer.snapshot(), opts);

    // Pre-encode the query pool so client threads do no encoder work.
    std::vector<std::vector<std::int32_t>> pool;
    for (std::size_t i = 0; i < test.size(); ++i) {
        pool.push_back(encode_one(enc, test, i));
    }

    constexpr std::size_t clients = 3;
    constexpr std::size_t per_client = 150;
    std::atomic<std::size_t> bad_answers{0};
    std::vector<std::thread> client_threads;
    client_threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        client_threads.emplace_back([&, c] {
            for (std::size_t q = 0; q < per_client; ++q) {
                const std::size_t answer =
                    engine.predict(pool[(c + q) % pool.size()]);
                if (answer >= 10) bad_answers.fetch_add(1);
            }
        });
    }
    // The trainer thread: online updates + a publish every few of them,
    // racing the clients the whole time.
    std::thread trainer_thread([&] {
        for (std::size_t i = 0; i < stream.size(); ++i) {
            trainer.partial_fit(stream.image(i), stream.label(i));
            if (i % 10 == 9) engine.publish(trainer.snapshot());
        }
        engine.publish(trainer.snapshot());
    });
    for (auto& t : client_threads) t.join();
    trainer_thread.join();
    EXPECT_EQ(bad_answers.load(), 0u);

    // Quiesced: the engine now serves the trainer's final state and must
    // answer exactly like the classifier it was trained alongside.
    for (std::size_t i = 0; i < pool.size(); ++i) {
        EXPECT_EQ(engine.predict(pool[i]), trainer.predict_encoded(pool[i]));
    }
    const serve::serve_stats stats = engine.stats();
    EXPECT_GE(stats.queries, clients * per_client);
    EXPECT_EQ(stats.snapshot_swaps, stream.size() / 10 + 1);
    EXPECT_EQ(stats.snapshot_version, trainer.snapshot().version());
}

TEST(InferenceEngineConcurrent, ReadersPinTheSnapshotTheyHold) {
    const auto base = data::make_synthetic_digits(80, 84);
    const auto enc = make_encoder(base, 256);
    hd_classifier<core::uhd_encoder> trainer(enc, 10);
    trainer.fit(base);
    inference_engine engine(trainer.snapshot());
    const std::shared_ptr<const inference_snapshot> pinned = engine.current();
    const auto query = encode_one(enc, base, 0);
    const std::size_t before = pinned->predict_encoded(query);
    // Publish a stream of new snapshots; the pinned one must not move.
    for (std::size_t i = 0; i < 50; ++i) {
        trainer.partial_fit(base.image(i % base.size()),
                            base.label(i % base.size()));
        engine.publish(trainer.snapshot());
        EXPECT_EQ(pinned->predict_encoded(query), before);
    }
    EXPECT_EQ(engine.current()->version(), trainer.snapshot().version());
    EXPECT_GT(engine.current()->version(), pinned->version());
}

TEST(InferenceEngineConcurrent, StopWithConcurrentSubmittersIsClean) {
    const auto base = data::make_synthetic_digits(60, 85);
    const auto enc = make_encoder(base, 256);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(base);
    engine_options opts;
    opts.workers = 2;
    opts.max_batch = 4;
    opts.queue_capacity = 16;
    inference_engine engine(clf.snapshot(), opts);
    const auto query = encode_one(enc, base, 0);
    std::atomic<std::size_t> served{0};
    std::atomic<std::size_t> refused{0};
    std::vector<std::thread> submitters;
    for (std::size_t c = 0; c < 3; ++c) {
        submitters.emplace_back([&] {
            for (std::size_t q = 0; q < 200; ++q) {
                try {
                    (void)engine.predict(query);
                    served.fetch_add(1);
                } catch (const uhd::error&) {
                    refused.fetch_add(1); // raced stop(): refused up front
                }
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    engine.stop();
    for (auto& t : submitters) t.join();
    // Every request was either served or cleanly refused — no hangs, no
    // broken futures.
    EXPECT_EQ(served.load() + refused.load(), 3u * 200u);
}

// --- micro_batch_queue: non-blocking push + close/submit edges ------------

TEST(MicroBatchQueue, TryPushReportsFullAndClosedWithoutConsuming) {
    micro_batch_queue<int> queue(2);
    EXPECT_EQ(queue.try_push(1), serve::push_result::pushed);
    EXPECT_EQ(queue.try_push(2), serve::push_result::pushed);
    EXPECT_EQ(queue.try_push(3), serve::push_result::full); // never blocks
    std::vector<int> batch;
    EXPECT_EQ(queue.pop_batch(batch, 1), 1u);
    EXPECT_EQ(queue.try_push(3), serve::push_result::pushed); // slot freed
    queue.close();
    EXPECT_EQ(queue.try_push(4), serve::push_result::closed);
    EXPECT_EQ(queue.pop_batch(batch, 8), 2u); // backlog still served
    EXPECT_EQ(batch, (std::vector<int>{2, 3}));
}

TEST(MicroBatchQueue, TryPushLeavesTheItemIntactWhenRefused) {
    // The wire server parks the refused payload and retries it later; a
    // move-out on `full` would silently destroy the request.
    micro_batch_queue<std::vector<int>> queue(1);
    std::vector<int> first{1, 2, 3};
    ASSERT_EQ(queue.try_push(std::move(first)), serve::push_result::pushed);
    std::vector<int> second{4, 5, 6};
    ASSERT_EQ(queue.try_push(std::move(second)), serve::push_result::full);
    EXPECT_EQ(second, (std::vector<int>{4, 5, 6})); // untouched
    queue.close();
    ASSERT_EQ(queue.try_push(std::move(second)), serve::push_result::closed);
    EXPECT_EQ(second, (std::vector<int>{4, 5, 6})); // still untouched
}

TEST(MicroBatchQueue, RacingCloseDuringFullQueueWaitCannotDeadlock) {
    // The close/submit edge, hammered: producers blocked on a full queue
    // while close() races them must ALL return (false), with no consumer
    // draining slots. Run under TSan in CI.
    for (int round = 0; round < 20; ++round) {
        micro_batch_queue<int> queue(1);
        ASSERT_TRUE(queue.push(0)); // full from the start
        std::atomic<int> refused{0};
        std::vector<std::thread> producers;
        for (int p = 0; p < 4; ++p) {
            producers.emplace_back([&] {
                if (!queue.push(1)) refused.fetch_add(1);
            });
        }
        // No sleep: close() races the producers' wait entry on purpose.
        queue.close();
        for (auto& t : producers) t.join(); // would hang on a lost wakeup
        EXPECT_EQ(refused.load(), 4);
        EXPECT_EQ(queue.try_push(2), serve::push_result::closed);
    }
}

// --- inference_engine: wire-path (callback) submits -----------------------

TEST(InferenceEngine, TrySubmitAnswersThroughTheCallbackWithVersion) {
    const auto train = data::make_synthetic_digits(120, 81);
    const auto test = data::make_synthetic_digits(40, 82);
    const auto enc = make_encoder(train);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    const auto snapshot = clf.snapshot();
    inference_engine engine(snapshot);
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t answered = 0;
    std::vector<std::size_t> labels(test.size());
    std::vector<std::uint64_t> versions(test.size());
    for (std::size_t i = 0; i < test.size(); ++i) {
        auto encoded = encode_one(enc, test, i);
        const bool pushed = engine.try_submit(
            encoded,
            [&, i](std::size_t label, std::uint64_t version,
                   std::exception_ptr error) {
                ASSERT_EQ(error, nullptr);
                const std::lock_guard<std::mutex> lock(mutex);
                labels[i] = label;
                versions[i] = version;
                ++answered;
                cv.notify_one();
            });
        ASSERT_TRUE(pushed); // default capacity far above this load
        EXPECT_TRUE(encoded.empty()); // payload moved into the request
    }
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return answered == test.size(); });
    for (std::size_t i = 0; i < test.size(); ++i) {
        EXPECT_EQ(labels[i], clf.predict_encoded(encode_one(enc, test, i)));
        EXPECT_EQ(versions[i], snapshot.version());
    }
    engine.stop();
}

TEST(InferenceEngine, PerRequestRoutingMatchesBothDirectPaths) {
    // A policy engine serving a MIXED batch: dynamic=false requests answer
    // with full-scan semantics, dynamic=true with the cascade — each
    // bit-identical to the corresponding direct snapshot path — and raw
    // requests of either kind share the answer groups with pre-encoded
    // ones through their packed encode-stage rows.
    const auto train = data::make_synthetic_digits(150, 83);
    const auto test = data::make_synthetic_digits(60, 84);
    const auto enc = make_encoder(train, 1024);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    const dynamic_query_policy policy = clf.calibrate_dynamic(train, 0.95);
    engine_options opts;
    opts.encoder = &enc;
    inference_engine engine(clf.snapshot(), policy, opts);
    EXPECT_TRUE(engine.dynamic_capable());
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t answered = 0;
    std::vector<std::size_t> labels(test.size());
    for (std::size_t i = 0; i < test.size(); ++i) {
        const bool dynamic = i % 2 == 1; // interleave the two kinds...
        const bool raw = i % 4 >= 2;     // ...each raw and pre-encoded
        const auto done = [&, i](std::size_t label, std::uint64_t,
                                 std::exception_ptr error) {
            ASSERT_EQ(error, nullptr);
            const std::lock_guard<std::mutex> lock(mutex);
            labels[i] = label;
            ++answered;
            cv.notify_one();
        };
        if (raw) {
            std::vector<std::uint8_t> pixels(test.image(i).begin(), test.image(i).end());
            ASSERT_TRUE(engine.try_submit_raw(pixels, done, dynamic));
        } else {
            auto encoded = encode_one(enc, test, i);
            ASSERT_TRUE(engine.try_submit(encoded, done, dynamic));
        }
    }
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return answered == test.size(); });
    }
    for (std::size_t i = 0; i < test.size(); ++i) {
        const auto encoded = encode_one(enc, test, i);
        const std::size_t expected =
            i % 2 == 1 ? clf.predict_dynamic_encoded(encoded, policy)
                       : clf.predict_encoded(encoded);
        EXPECT_EQ(labels[i], expected) << "query " << i;
    }
    engine.stop();
}

TEST(InferenceEngine, TrySubmitRejectsDynamicWithoutPolicyAndStopped) {
    const auto train = data::make_synthetic_digits(60, 85);
    const auto enc = make_encoder(train, 256);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    inference_engine engine(clf.snapshot());
    EXPECT_FALSE(engine.dynamic_capable());
    auto encoded = encode_one(enc, train, 0);
    const auto ignore = [](std::size_t, std::uint64_t, std::exception_ptr) {};
    EXPECT_THROW((void)engine.try_submit(encoded, ignore, /*dynamic=*/true),
                 uhd::error);
    engine.stop();
    EXPECT_THROW((void)engine.try_submit(encoded, ignore), uhd::error);
}

TEST(InferenceEngine, TrySubmitReturnsFalseOnFullQueueAndKeepsPayload) {
    const auto train = data::make_synthetic_digits(60, 86);
    const auto enc = make_encoder(train, 256);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    engine_options opts;
    opts.workers = 1;
    opts.max_batch = 2;
    opts.queue_capacity = 2;
    inference_engine engine(clf.snapshot(), opts);
    // Plug the single worker with a slow callback so the tiny queue backs
    // up, then observe a non-blocking refusal with the payload intact.
    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;
    std::atomic<std::size_t> delivered{0};
    const serve::answer_callback blocking =
        [&](std::size_t, std::uint64_t, std::exception_ptr) {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return release; });
            delivered.fetch_add(1);
        };
    const serve::answer_callback counting =
        [&](std::size_t, std::uint64_t, std::exception_ptr) {
            delivered.fetch_add(1);
        };
    auto query = encode_one(enc, train, 0);
    const auto reference = query;
    std::size_t accepted = 0;
    bool saw_full = false;
    // Keep pushing until the queue refuses; the first requests park the
    // worker inside the blocking callback.
    for (int i = 0; i < 64 && !saw_full; ++i) {
        auto copy = query;
        if (engine.try_submit(copy, i == 0 ? blocking : counting)) {
            ++accepted;
            EXPECT_TRUE(copy.empty());
        } else {
            saw_full = true;
            EXPECT_EQ(copy, reference); // refused payload handed back
        }
    }
    EXPECT_TRUE(saw_full);
    {
        const std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    cv.notify_all();
    engine.stop(); // drains the backlog: every accepted request answers
    EXPECT_EQ(delivered.load(), accepted);
}

TEST(InferenceEngine, RawSubmitBatchEncodesBitIdenticalToDirectPredict) {
    // The off-loop encode stage: raw pixels through try_submit_raw must
    // answer exactly like encoding on the caller's thread and submitting
    // pre-encoded — and the encode accounting must show batched encode
    // calls, not one call per query. Both stages: packed sign rows on a
    // binarized snapshot, int32 accumulators on an integer one.
    const auto train = data::make_synthetic_digits(150, 71);
    const auto test = data::make_synthetic_digits(80, 72);
    const auto enc = make_encoder(train);
    for (const query_mode qm : {query_mode::binarized, query_mode::integer}) {
        hd_classifier<core::uhd_encoder> clf(enc, 10, train_mode::binarized_images, qm);
        clf.fit(train);
        engine_options opts;
        opts.workers = 2;
        opts.max_batch = 16;
        opts.encoder = &enc;
        inference_engine engine(clf.snapshot(), opts);
        ASSERT_TRUE(engine.raw_capable());
        ASSERT_EQ(engine.raw_pixels(), test.image(0).size());
        std::mutex mutex;
        std::vector<std::size_t> labels(test.size(), ~std::size_t{0});
        std::atomic<std::size_t> errors{0};
        for (std::size_t i = 0; i < test.size(); ++i) {
            std::vector<std::uint8_t> raw(test.image(i).begin(), test.image(i).end());
            const bool accepted = engine.try_submit_raw(
                raw, [&, i](std::size_t label, std::uint64_t, std::exception_ptr error) {
                    if (error != nullptr) {
                        errors.fetch_add(1);
                        return;
                    }
                    const std::lock_guard<std::mutex> lock(mutex);
                    labels[i] = label;
                });
            ASSERT_TRUE(accepted); // queue far larger than the test set
            EXPECT_TRUE(raw.empty());
        }
        engine.stop(); // drains: every callback has run
        EXPECT_EQ(errors.load(), 0u);
        for (std::size_t i = 0; i < test.size(); ++i) {
            EXPECT_EQ(labels[i], clf.predict_encoded(encode_one(enc, test, i)))
                << "query " << i << " integer=" << (qm == query_mode::integer);
        }
        const serve::serve_stats stats = engine.stats();
        EXPECT_EQ(stats.raw_queries, test.size());
        EXPECT_GE(stats.encode_kernel_calls, 1u);
        EXPECT_LE(stats.encode_kernel_calls, stats.raw_queries);
        EXPECT_GE(stats.encode_utilization(), 1.0);
    }
}

TEST(InferenceEngine, RawSubmitValidatesEncoderPixelsAndShutdown) {
    const auto train = data::make_synthetic_digits(60, 76);
    const auto enc = make_encoder(train, 256);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    const serve::answer_callback ignore =
        [](std::size_t, std::uint64_t, std::exception_ptr) {};
    // No encoder configured: raw queries are a usage error.
    inference_engine plain(clf.snapshot());
    EXPECT_FALSE(plain.raw_capable());
    EXPECT_EQ(plain.raw_pixels(), 0u);
    std::vector<std::uint8_t> raw(train.image(0).begin(),
                                  train.image(0).end());
    EXPECT_THROW((void)plain.try_submit_raw(raw, ignore), uhd::error);
    // Encoder configured: the payload must be exactly raw_pixels() bytes.
    engine_options opts;
    opts.encoder = &enc;
    inference_engine engine(clf.snapshot(), opts);
    std::vector<std::uint8_t> wrong(engine.raw_pixels() + 3, 0);
    EXPECT_THROW((void)engine.try_submit_raw(wrong, ignore), uhd::error);
    EXPECT_EQ(wrong.size(), engine.raw_pixels() + 3); // payload untouched
    engine.stop();
    EXPECT_THROW((void)engine.try_submit_raw(raw, ignore), uhd::error);
}

TEST(InferenceEngine, ScratchPredictReusesTheAllocationAndMatches) {
    const auto train = data::make_synthetic_digits(120, 77);
    const auto test = data::make_synthetic_digits(40, 78);
    const auto enc = make_encoder(train);
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    inference_engine engine(clf.snapshot());
    std::vector<std::int32_t> scratch;
    // Warm-up call owns the one allocation.
    const auto first = encode_one(enc, test, 0);
    EXPECT_EQ(engine.predict(first, scratch), clf.predict_encoded(first));
    ASSERT_EQ(scratch.size(), enc.dim()); // the buffer came back
    const std::int32_t* warm = scratch.data();
    for (std::size_t i = 1; i < test.size(); ++i) {
        const auto encoded = encode_one(enc, test, i);
        EXPECT_EQ(engine.predict(encoded, scratch),
                  clf.predict_encoded(encoded))
            << "query " << i;
        // Same allocation round-trips through the queue every call.
        EXPECT_EQ(scratch.data(), warm) << "scratch reallocated, query " << i;
    }
}

} // namespace

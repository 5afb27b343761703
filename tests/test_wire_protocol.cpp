// Wire front-end tests: frame codec round-trips, loopback end-to-end
// bit-identity against the snapshot oracle, per-request routing over the
// wire, online partial_fit, stats/ping — and the frame-fuzz suite
// (truncated headers, oversized lengths, bad magic/opcodes, byte-split
// pipelined reads, random garbage) asserting the server never crashes
// and always answers malformed input with a clean error frame or a
// disconnect. The server+engine suites here also run under TSan in CI.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/core/model.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/dynamic_query.hpp"
#include "uhd/hdc/inference_snapshot.hpp"
#include "uhd/net/socket.hpp"
#include "uhd/net/wire_client.hpp"
#include "uhd/net/wire_format.hpp"
#include "uhd/net/wire_server.hpp"
#include "uhd/serve/inference_engine.hpp"

namespace {

using namespace uhd;
using namespace uhd::net;

constexpr long recv_timeout_ms = 20000; // fail fast, never hang the suite

/// Small deterministic serving fixture: model + engine + running server.
struct server_fixture {
    data::dataset train = data::make_synthetic_digits(120, 91);
    data::dataset test = data::make_synthetic_digits(40, 92);
    core::uhd_model model;
    std::optional<serve::inference_engine> engine;
    std::optional<wire_server> server;

    explicit server_fixture(bool dynamic = false,
                            wire_server_options options = {},
                            serve::engine_options engine_options = {},
                            hdc::query_mode mode = hdc::query_mode::binarized)
        : model(make_config(), train.shape(), train.num_classes(),
                hdc::train_mode::raw_sums, mode) {
        model.fit(train);
        // The engine's encode stage is the server's only raw-query path.
        engine_options.encoder = &model.encoder();
        if (dynamic) {
            engine.emplace(model.snapshot(),
                           model.calibrate_dynamic(train, 0.95),
                           engine_options);
        } else {
            engine.emplace(model.snapshot(), engine_options);
        }
        server.emplace(*engine, options, &model);
        server->start();
    }

    static core::uhd_config make_config() {
        core::uhd_config cfg;
        cfg.dim = 512;
        return cfg;
    }

    [[nodiscard]] wire_client connect() const {
        wire_client client("127.0.0.1", server->port());
        client.set_recv_timeout_ms(recv_timeout_ms);
        return client;
    }

    [[nodiscard]] std::vector<std::int32_t> encoded_query(std::size_t i) const {
        std::vector<std::int32_t> out(model.encoder().dim());
        model.encoder().encode(test.image(i % test.size()), out);
        return out;
    }
};

/// Raw socket helper for the fuzz suites: exact bytes, no client logic.
struct raw_connection {
    socket_fd sock;

    explicit raw_connection(std::uint16_t port)
        : sock(connect_tcp("127.0.0.1", port)) {
        timeval tv{};
        tv.tv_sec = recv_timeout_ms / 1000;
        EXPECT_EQ(::setsockopt(sock.get(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                               sizeof(tv)),
                  0);
    }

    void send_all(std::span<const std::uint8_t> bytes) {
        std::size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t n = ::send(sock.get(), bytes.data() + sent,
                                     bytes.size() - sent, MSG_NOSIGNAL);
            ASSERT_GT(n, 0);
            sent += static_cast<std::size_t>(n);
        }
    }

    /// Read until EOF or timeout; returns everything received.
    std::vector<std::uint8_t> drain() {
        std::vector<std::uint8_t> out;
        std::uint8_t chunk[4096];
        while (true) {
            const ssize_t n = ::recv(sock.get(), chunk, sizeof(chunk), 0);
            if (n <= 0) break;
            out.insert(out.end(), chunk, chunk + n);
        }
        return out;
    }
};

/// Poll the server's shard-summed stats until `done` holds; false after
/// 20 s without it.
template <typename Done>
bool wait_for_stats(const wire_server& server, Done done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!done(server.stats())) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return true;
}

/// `n` pipelined predicts, pre-encoded and raw in turn, with request id i
/// for query i (both kinds of query i have the same answer).
std::vector<std::uint8_t> mixed_burst(const server_fixture& fx, std::size_t n) {
    std::vector<std::uint8_t> burst;
    for (std::size_t i = 0; i < n; ++i) {
        const auto id = static_cast<std::uint32_t>(i);
        if (i % 2 == 0) {
            append_predict_encoded(burst, opcode::predict, id, fx.encoded_query(i));
        } else {
            append_predict_raw(burst, opcode::predict, id, fx.test.image(i % fx.test.size()));
        }
    }
    return burst;
}

/// Pipeline mixed_burst(n) on a fresh connection, far past any in-flight
/// cap, and count the replies that are wrong or duplicated (a missing one
/// times the read out, which throws).
std::size_t pipelined_mismatches(const server_fixture& fx, std::size_t n) {
    const hdc::inference_snapshot oracle = fx.model.snapshot();
    wire_client client = fx.connect();
    client.send_bytes(mixed_burst(fx, n));
    std::vector<bool> answered(n, false);
    std::size_t bad = 0;
    for (std::size_t r = 0; r < n; ++r) {
        const wire_frame reply = client.read_frame();
        const auto parsed = parse_predict_reply(reply.payload);
        const std::size_t id = reply.header.request_id;
        if (!parsed.has_value() || id >= n || answered[id] ||
            parsed->label != oracle.predict_encoded(fx.encoded_query(id))) {
            ++bad;
            continue;
        }
        answered[id] = true;
    }
    return bad;
}

/// Parse the first complete frame out of a byte stream (test-side).
std::optional<wire_frame> first_frame(const std::vector<std::uint8_t>& bytes) {
    if (bytes.size() < wire_header_size) return std::nullopt;
    wire_frame frame;
    frame.header = decode_header(bytes.data());
    if (bytes.size() < wire_header_size + frame.header.payload_len) {
        return std::nullopt;
    }
    frame.payload.assign(bytes.begin() + wire_header_size,
                         bytes.begin() + wire_header_size +
                             frame.header.payload_len);
    return frame;
}

// --- codec ----------------------------------------------------------------

TEST(WireFormat, HeaderRoundTripsEveryField) {
    std::uint8_t raw[wire_header_size];
    encode_header(raw, static_cast<std::uint8_t>(opcode::predict), 0xDEADBEEF,
                  0x01020304);
    const frame_header h = decode_header(raw);
    EXPECT_EQ(h.magic, wire_magic);
    EXPECT_EQ(h.version, wire_version);
    EXPECT_EQ(h.op, static_cast<std::uint8_t>(opcode::predict));
    EXPECT_EQ(h.request_id, 0xDEADBEEFu);
    EXPECT_EQ(h.payload_len, 0x01020304u);
    // Little-endian on the wire, byte for byte.
    EXPECT_EQ(raw[0], 0x48); // 'H'
    EXPECT_EQ(raw[1], 0x75); // 'u'
    EXPECT_EQ(raw[4], 0xEF);
    EXPECT_EQ(raw[8], 0x04);
}

TEST(WireFormat, ScalarHelpersRoundTrip) {
    std::uint8_t buf[8];
    store_u64(buf, 0x0123456789ABCDEFull);
    EXPECT_EQ(load_u64(buf), 0x0123456789ABCDEFull);
    store_u32(buf, 0xFEDCBA98u);
    EXPECT_EQ(load_u32(buf), 0xFEDCBA98u);
    store_u16(buf, 0xBEEF);
    EXPECT_EQ(load_u16(buf), 0xBEEF);
    // Negative int32 accumulators survive the u32 transport cast.
    store_u32(buf, static_cast<std::uint32_t>(-12345));
    EXPECT_EQ(static_cast<std::int32_t>(load_u32(buf)), -12345);
}

TEST(WireFormat, StatsReplyRoundTrips) {
    stats_reply in;
    in.queries = 1;
    in.batches = 2;
    in.kernel_calls = 3;
    in.snapshot_swaps = 4;
    in.max_batch_observed = 5;
    in.snapshot_version = 6;
    in.connections_accepted = 7;
    in.connections_active = 8;
    in.frames_in = 9;
    in.frames_out = 10;
    in.bytes_in = 11;
    in.bytes_out = 12;
    in.malformed_frames = 13;
    in.throttle_events = 14;
    in.reactors = 15;
    in.raw_queries = 16;
    in.encode_kernel_calls = 17;
    std::uint8_t raw[stats_reply_size];
    encode_stats_reply(raw, in);
    const auto out = parse_stats_reply(std::span<const std::uint8_t>(raw));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->queries, 1u);
    EXPECT_EQ(out->snapshot_version, 6u);
    EXPECT_EQ(out->throttle_events, 14u);
    EXPECT_EQ(out->reactors, 15u);
    EXPECT_EQ(out->raw_queries, 16u);
    EXPECT_EQ(out->encode_kernel_calls, 17u);
    EXPECT_FALSE(
        parse_stats_reply(std::span<const std::uint8_t>(raw, 8)).has_value());
}

// --- end-to-end correctness ----------------------------------------------

TEST(WireServer, PredictAnswersBitIdenticalToSnapshotOracle) {
    const server_fixture fx;
    const hdc::inference_snapshot oracle = fx.model.snapshot();
    wire_client client = fx.connect();
    for (std::size_t i = 0; i < fx.test.size(); ++i) {
        const auto encoded = fx.encoded_query(i);
        const predict_reply reply = client.predict_encoded(encoded);
        EXPECT_EQ(reply.label, oracle.predict_encoded(encoded)) << "query " << i;
        EXPECT_EQ(reply.snapshot_version, oracle.version());
    }
}

TEST(WireServer, RawPredictThroughOffLoopEncodeStageMatchesOracle) {
    // Raw frames are batch-encoded by the serve workers (one batch encode
    // per drained micro-batch), never on the reactor: answers must be
    // bit-identical to the oracle and to the same query sent pre-encoded.
    const server_fixture fx;
    const hdc::inference_snapshot oracle = fx.model.snapshot();
    wire_client client = fx.connect();
    for (std::size_t i = 0; i < fx.test.size(); ++i) {
        const predict_reply reply = client.predict_raw(fx.test.image(i));
        EXPECT_EQ(reply.label, oracle.predict_encoded(fx.encoded_query(i)))
            << "query " << i;
        if (i < 10) {
            EXPECT_EQ(reply.label,
                      client.predict_encoded(fx.encoded_query(i)).label)
                << "query " << i;
        }
    }
    // The encode stage accounted its work, and the counters surface over
    // the wire (schema: 17-field stats reply).
    const stats_reply stats = client.stats();
    EXPECT_EQ(stats.raw_queries, fx.test.size());
    EXPECT_GE(stats.encode_kernel_calls, 1u);
    EXPECT_LE(stats.encode_kernel_calls, stats.raw_queries);
    EXPECT_EQ(stats.reactors, 1u);
}

TEST(WireServer, WireRoutingMatchesBothDirectPathsOnAPolicyServer) {
    // predict and predict_dynamic on the SAME connection against a
    // policy-configured engine: the wire opcodes select full-scan vs
    // cascade per request, each bit-identical to its direct path.
    const server_fixture fx(/*dynamic=*/true);
    const hdc::inference_snapshot oracle = fx.model.snapshot();
    const hdc::dynamic_query_policy policy =
        fx.model.calibrate_dynamic(fx.train, 0.95);
    const std::size_t words = oracle.words_per_class();
    wire_client client = fx.connect();
    std::vector<std::uint64_t> packed(words);
    std::vector<std::size_t> answer(1);
    for (std::size_t i = 0; i < fx.test.size(); ++i) {
        const auto encoded = fx.encoded_query(i);
        const predict_reply full = client.predict_encoded(encoded, false);
        EXPECT_EQ(full.label, oracle.predict_encoded(encoded));
        const predict_reply cascade = client.predict_encoded(encoded, true);
        kernels::sign_binarize(encoded.data(), encoded.size(), packed.data());
        policy.answer_block(oracle, packed, 1, answer);
        EXPECT_EQ(cascade.label, answer[0]) << "query " << i;
    }
}

TEST(WireServer, IntegerModeModelIsRefusedAsSnapshotAndAsTrainer) {
    // The engine serves binarized snapshots only, so an integer-mode model
    // is refused by either engine constructor. Behind a binarized engine
    // it is refused as the server's trainer too, at construction: every
    // partial_fit would publish a snapshot the engine refuses.
    EXPECT_THROW(server_fixture(/*dynamic=*/false, {}, {}, hdc::query_mode::integer),
                 uhd::error);
    EXPECT_THROW(server_fixture(/*dynamic=*/true, {}, {}, hdc::query_mode::integer),
                 uhd::error);
    server_fixture fx;
    core::uhd_model integer_model(server_fixture::make_config(), fx.train.shape(),
                                  fx.train.num_classes(), hdc::train_mode::raw_sums,
                                  hdc::query_mode::integer);
    integer_model.fit(fx.train);
    EXPECT_THROW(wire_server(*fx.engine, {}, &integer_model), uhd::error);
}

TEST(WireServer, DynamicOpcodeOnAPlainEngineGetsUnsupported) {
    const server_fixture fx(/*dynamic=*/false);
    wire_client client = fx.connect();
    EXPECT_THROW((void)client.predict_encoded(fx.encoded_query(0), true),
                 uhd::error);
    // Request-level error: the connection survives and keeps serving.
    const predict_reply reply = client.predict_encoded(fx.encoded_query(0));
    EXPECT_EQ(reply.label, fx.model.snapshot().predict_encoded(fx.encoded_query(0)));
}

TEST(WireServer, PartialFitUpdatesTheServedModel) {
    wire_server_options options;
    options.publish_every = 1; // publish every fit: versions must move
    const server_fixture fx(false, options);
    wire_client client = fx.connect();
    const std::uint64_t version_before = client.stats().snapshot_version;
    const data::dataset stream = data::make_synthetic_digits(16, 93);
    std::uint64_t updates = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const partial_fit_reply reply = client.partial_fit(
            static_cast<std::uint32_t>(stream.label(i)), stream.image(i));
        EXPECT_EQ(reply.updates, ++updates);
        EXPECT_GT(reply.snapshot_version, version_before);
    }
    // The served snapshot now answers like the trained model: the fixture
    // model was trained through the wire, so compare against it directly.
    const hdc::inference_snapshot oracle = fx.model.snapshot();
    for (std::size_t i = 0; i < 10; ++i) {
        const auto encoded = fx.encoded_query(i);
        EXPECT_EQ(client.predict_encoded(encoded).label,
                  oracle.predict_encoded(encoded));
    }
    // Bad label: clean error frame, connection lives.
    EXPECT_THROW((void)client.partial_fit(1000, stream.image(0)), uhd::error);
    client.ping();
}

TEST(WireServer, RefusesATrainerOfAnotherGeometry) {
    // A D = 256 trainer behind a D = 512 engine: its first partial_fit
    // would be applied and then fail to publish, and the fits after it
    // would never reach the engine. The server refuses it at construction.
    server_fixture fx;
    core::uhd_config narrow = server_fixture::make_config();
    narrow.dim = 256;
    core::uhd_model model(narrow, fx.train.shape(), fx.train.num_classes(),
                          hdc::train_mode::raw_sums, hdc::query_mode::binarized);
    model.fit(fx.train);
    EXPECT_THROW(wire_server(*fx.engine, {}, &model), uhd::error);
}

TEST(WireServer, StatsAndPingReportServerCounters) {
    const server_fixture fx;
    wire_client client = fx.connect();
    client.ping();
    const std::size_t queries = 5;
    for (std::size_t i = 0; i < queries; ++i) {
        (void)client.predict_encoded(fx.encoded_query(i));
    }
    const stats_reply stats = client.stats();
    EXPECT_GE(stats.queries, queries);
    EXPECT_GE(stats.frames_in, queries + 1);
    EXPECT_GE(stats.frames_out, queries + 1);
    EXPECT_GT(stats.bytes_in, 0u);
    EXPECT_GT(stats.bytes_out, 0u);
    EXPECT_EQ(stats.connections_active, 1u);
    EXPECT_EQ(stats.connections_accepted, 1u);
    EXPECT_EQ(stats.malformed_frames, 0u);
    EXPECT_EQ(stats.snapshot_version, fx.model.snapshot().version());
}

TEST(WireServer, PipelinedBurstAnswersEveryRequestInOrder) {
    const server_fixture fx;
    const hdc::inference_snapshot oracle = fx.model.snapshot();
    wire_client client = fx.connect();
    const std::size_t burst_size = 64;
    std::vector<std::uint8_t> burst;
    std::vector<std::size_t> expected(burst_size);
    for (std::size_t i = 0; i < burst_size; ++i) {
        const auto encoded = fx.encoded_query(i);
        append_predict_encoded(burst, opcode::predict,
                               static_cast<std::uint32_t>(i), encoded);
        expected[i] = oracle.predict_encoded(encoded);
    }
    client.send_bytes(burst);
    for (std::size_t i = 0; i < burst_size; ++i) {
        const wire_frame reply = client.read_frame();
        EXPECT_EQ(reply.header.op, reply_opcode(opcode::predict));
        ASSERT_LT(reply.header.request_id, burst_size);
        const auto parsed = parse_predict_reply(reply.payload);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->label, expected[reply.header.request_id]);
    }
}

TEST(WireServer, SmallInflightCapStillAnswersEverything) {
    // Cap far below the pipelining depth: the server throttles reads
    // instead of dropping or deadlocking, and every request answers.
    wire_server_options options;
    options.inflight_cap = 2;
    const server_fixture fx(false, options);
    const hdc::inference_snapshot oracle = fx.model.snapshot();
    wire_client client = fx.connect();
    const std::size_t burst_size = 128;
    std::vector<std::uint8_t> burst;
    std::vector<std::size_t> expected(burst_size);
    for (std::size_t i = 0; i < burst_size; ++i) {
        const auto encoded = fx.encoded_query(i);
        append_predict_encoded(burst, opcode::predict,
                               static_cast<std::uint32_t>(i), encoded);
        expected[i] = oracle.predict_encoded(encoded);
    }
    client.send_bytes(burst);
    std::size_t answered = 0;
    for (std::size_t i = 0; i < burst_size; ++i) {
        const wire_frame reply = client.read_frame();
        const auto parsed = parse_predict_reply(reply.payload);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->label, expected[reply.header.request_id]);
        ++answered;
    }
    EXPECT_EQ(answered, burst_size);
}

TEST(WireServer, FullEngineQueueParksAndAnswersEveryRequestOnce) {
    // An engine queue of 2 against 4 connections pipelining 128 predicts
    // each: almost every read's batch submit is cut short, its tail parks
    // on the connection and is retried as slots free up — including on
    // connections with nothing in flight, which no completion of their own
    // would ever re-pump. Every request is answered exactly once, with the
    // oracle's label, in encoded and raw kinds alike.
    serve::engine_options engine_options;
    engine_options.queue_capacity = 2;
    const server_fixture fx(false, {}, engine_options);
    const hdc::inference_snapshot oracle = fx.model.snapshot();
    constexpr std::size_t n_conns = 4;
    constexpr std::size_t burst_size = 128;
    std::vector<std::size_t> expected(burst_size);
    for (std::size_t i = 0; i < burst_size; ++i) {
        expected[i] = oracle.predict_encoded(fx.encoded_query(i));
    }
    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::size_t> duplicates{0};
    std::atomic<std::size_t> unanswered{0};
    std::atomic<std::size_t> stalled{0};
    const auto drive = [&](std::size_t c) {
        wire_client client = fx.connect();
        std::vector<std::uint8_t> burst;
        for (std::size_t i = 0; i < burst_size; ++i) {
            const auto id = static_cast<std::uint32_t>(i);
            if ((i + c) % 2 == 0) {
                append_predict_encoded(burst, opcode::predict, id, fx.encoded_query(i));
            } else {
                append_predict_raw(burst, opcode::predict, id,
                                   fx.test.image(i % fx.test.size()));
            }
        }
        client.send_bytes(burst);
        std::vector<bool> answered(burst_size, false);
        for (std::size_t r = 0; r < burst_size; ++r) {
            const wire_frame reply = client.read_frame();
            const auto parsed = parse_predict_reply(reply.payload);
            const std::size_t id = reply.header.request_id;
            if (reply.header.op != reply_opcode(opcode::predict) ||
                !parsed.has_value() || id >= burst_size) {
                mismatches.fetch_add(1);
                continue;
            }
            if (answered[id]) duplicates.fetch_add(1);
            answered[id] = true;
            if (parsed->label != expected[id]) mismatches.fetch_add(1);
        }
        unanswered.fetch_add(static_cast<std::size_t>(
            std::count(answered.begin(), answered.end(), false)));
        // Nothing else is owed: the next frame is the pong.
        std::vector<std::uint8_t> probe;
        append_frame(probe, static_cast<std::uint8_t>(opcode::ping), 9999, {});
        client.send_bytes(probe);
        const wire_frame pong = client.read_frame();
        if (pong.header.op != reply_opcode(opcode::ping) ||
            pong.header.request_id != 9999) {
            duplicates.fetch_add(1);
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < n_conns; ++c) {
        threads.emplace_back([&, c] {
            try {
                drive(c);
            } catch (const uhd::error&) {
                stalled.fetch_add(1); // a read timed out: a reply never came
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(stalled.load(), 0u);
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(duplicates.load(), 0u);
    EXPECT_EQ(unanswered.load(), 0u);
    EXPECT_GT(fx.server->stats().throttle_events, 0u);
    EXPECT_EQ(fx.engine->stats().queries, n_conns * burst_size);
}

TEST(WireServer, ServesManyConnectionsConcurrently) {
    const server_fixture fx;
    const hdc::inference_snapshot oracle = fx.model.snapshot();
    constexpr std::size_t n_threads = 4;
    constexpr std::size_t per_thread = 50;
    std::vector<std::thread> threads;
    std::atomic<std::size_t> mismatches{0};
    for (std::size_t t = 0; t < n_threads; ++t) {
        threads.emplace_back([&, t] {
            wire_client client = fx.connect();
            for (std::size_t q = 0; q < per_thread; ++q) {
                const auto encoded = fx.encoded_query(t * 13 + q);
                if (client.predict_encoded(encoded).label !=
                    oracle.predict_encoded(encoded)) {
                    mismatches.fetch_add(1);
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0u);
}

TEST(WireServer, StopWithInflightRequestsShutsDownCleanly) {
    // Shutdown while pipelined requests are in flight: stop() must wait
    // out engine callbacks (no use-after-free) and never hang.
    server_fixture fx;
    wire_client client = fx.connect();
    std::vector<std::uint8_t> burst;
    for (std::size_t i = 0; i < 64; ++i) {
        append_predict_encoded(burst, opcode::predict,
                               static_cast<std::uint32_t>(i),
                               fx.encoded_query(i));
    }
    client.send_bytes(burst);
    fx.server->stop(); // races the in-flight answers on purpose
    fx.server.reset();
    fx.engine.reset();
}

// --- query payload slots --------------------------------------------------
//
// A reactor keeps each predict's payload in a slot of its own pool from
// parse to answer. These suites check that every slot comes back — from
// connections that close with answers in flight, from parked tails, and at
// stop() — by the pool gauges in wire_stats: nothing in use once the
// server is quiet, and a pool no larger than one connection's in-flight
// cap when connections come one at a time. A slot freed too early (before
// its answer is delivered) shows as wrong answers on the fresh connection
// that follows, or as a ThreadSanitizer report.

constexpr std::size_t slot_test_cap = 64; // pipelining depth of each connection

TEST(WireSlots, ComeBackFromConnectionsClosedBeforeReadingAReply) {
    wire_server_options options;
    options.inflight_cap = slot_test_cap;
    const server_fixture fx(false, options);
    const std::vector<std::uint8_t> burst = mixed_burst(fx, slot_test_cap);
    for (std::size_t c = 0; c < 1000; ++c) {
        raw_connection conn(fx.server->port());
        conn.send_all(burst);
        ASSERT_TRUE(wait_for_stats(*fx.server, [c](const wire_stats& w) {
            return w.frames_in == (c + 1) * slot_test_cap;
        })) << "connection " << c << ": its burst was never parsed";
        conn.sock.reset(); // no reply read: a reset, answers still owed
        ASSERT_TRUE(wait_for_stats(*fx.server, [](const wire_stats& w) {
            return w.connections_active == 0 && w.query_slots_in_use == 0;
        })) << "connection " << c << ": " << fx.server->stats().query_slots_in_use
            << " slots never came back";
    }
    EXPECT_EQ(pipelined_mismatches(fx, 2048), 0u);
    ASSERT_TRUE(wait_for_stats(*fx.server, [](const wire_stats& w) {
        return w.query_slots_in_use == 0;
    }));
    const wire_stats wire = fx.server->stats();
    EXPECT_GE(wire.query_slots, 1u);
    EXPECT_LE(wire.query_slots, slot_test_cap);
}

TEST(WireSlots, ComeBackFromParkedTailsOfClosedConnections) {
    // One worker, plugged inside an answer callback, and a queue of 2 that
    // two more requests fill: every predict a connection sends is parked.
    // Each connection then resets while parked, so close_connection alone
    // can return its slots.
    wire_server_options options;
    options.inflight_cap = slot_test_cap;
    serve::engine_options engine_options;
    engine_options.workers = 1;
    engine_options.queue_capacity = 2;
    server_fixture fx(false, options, engine_options);
    std::mutex mutex;
    std::condition_variable cv;
    bool plugged = false;
    bool release = false;
    const std::function<void()> unplug = [&] {
        {
            const std::lock_guard<std::mutex> lock(mutex);
            release = true;
        }
        cv.notify_all();
    };
    // Unplugs on every exit, an early one included, so the engine can stop.
    struct on_exit {
        const std::function<void()>& run;
        ~on_exit() { run(); }
    } const unplug_guard{unplug};
    auto plug = fx.encoded_query(0);
    ASSERT_TRUE(fx.engine->try_submit(plug, [&](std::size_t, std::uint64_t, std::exception_ptr) {
        std::unique_lock<std::mutex> lock(mutex);
        plugged = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    }));
    {
        std::unique_lock<std::mutex> lock(mutex);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return plugged; }));
    }
    const serve::answer_callback ignore = [](std::size_t, std::uint64_t, std::exception_ptr) {};
    for (std::size_t i = 0; i < 2; ++i) {
        auto filler = fx.encoded_query(i);
        ASSERT_TRUE(fx.engine->try_submit(filler, ignore));
    }
    const std::vector<std::uint8_t> burst = mixed_burst(fx, slot_test_cap);
    for (std::size_t c = 0; c < 50; ++c) {
        raw_connection conn(fx.server->port());
        conn.send_all(burst);
        // A parked connection reads no further, so the predicts of its
        // first read stay parked.
        ASSERT_TRUE(wait_for_stats(*fx.server, [](const wire_stats& w) {
            return w.query_slots_in_use > 0;
        })) << "connection " << c << " never parked a predict";
        const linger abort{1, 0}; // close with a reset: EPOLLHUP at once
        ASSERT_EQ(::setsockopt(conn.sock.get(), SOL_SOCKET, SO_LINGER, &abort, sizeof(abort)),
                  0);
        conn.sock.reset();
        ASSERT_TRUE(wait_for_stats(*fx.server, [](const wire_stats& w) {
            return w.connections_active == 0 && w.query_slots_in_use == 0;
        })) << "connection " << c << ": " << fx.server->stats().query_slots_in_use
            << " parked slots never came back";
    }
    unplug();
    EXPECT_EQ(pipelined_mismatches(fx, 1024), 0u);
    ASSERT_TRUE(wait_for_stats(*fx.server, [](const wire_stats& w) {
        return w.query_slots_in_use == 0;
    }));
    EXPECT_LE(fx.server->stats().query_slots, slot_test_cap);
    EXPECT_EQ(fx.engine->stats().queries, 3 + 1024u); // no parked predict ran
}

TEST(WireSlots, ComeBackWhenStopRacesInflightPredicts) {
    // stop() with predicts in flight on several connections: it waits out
    // every delivery, then returns each slot (parked, in flight or in the
    // mailbox). A restarted server then serves fresh traffic correctly.
    wire_server_options options;
    options.inflight_cap = slot_test_cap;
    options.reactors = 2;
    server_fixture fx(false, options);
    for (int round = 0; round < 3; ++round) {
        const std::vector<std::uint8_t> burst = mixed_burst(fx, 4 * slot_test_cap);
        std::vector<wire_client> clients;
        for (std::size_t c = 0; c < 4; ++c) {
            clients.push_back(fx.connect());
            clients.back().send_bytes(burst);
        }
        fx.server->stop(); // races the in-flight answers on purpose
        EXPECT_EQ(fx.server->stats().query_slots_in_use, 0u) << "round " << round;
        fx.server->start();
        EXPECT_EQ(pipelined_mismatches(fx, 512), 0u) << "round " << round;
    }
}

// --- frame fuzzing --------------------------------------------------------

TEST(WireFuzz, BadMagicGetsErrorFrameThenDisconnect) {
    const server_fixture fx;
    raw_connection conn(fx.server->port());
    std::vector<std::uint8_t> frame;
    append_frame(frame, static_cast<std::uint8_t>(opcode::ping), 7, {});
    frame[0] = 0x00; // corrupt the magic
    conn.send_all(frame);
    const auto bytes = conn.drain(); // server replies then closes (EOF)
    const auto reply = first_frame(bytes);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.op, op_error);
    ASSERT_GE(reply->payload.size(), 2u);
    EXPECT_EQ(load_u16(reply->payload.data()),
              static_cast<std::uint16_t>(wire_error::bad_magic));
}

TEST(WireFuzz, BadVersionGetsErrorFrameThenDisconnect) {
    const server_fixture fx;
    raw_connection conn(fx.server->port());
    std::vector<std::uint8_t> frame;
    append_frame(frame, static_cast<std::uint8_t>(opcode::ping), 8, {});
    frame[2] = 0x7F; // future protocol version
    conn.send_all(frame);
    const auto reply = first_frame(conn.drain());
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.op, op_error);
    EXPECT_EQ(load_u16(reply->payload.data()),
              static_cast<std::uint16_t>(wire_error::bad_version));
}

TEST(WireFuzz, OversizedPayloadLengthGetsErrorFrameThenDisconnect) {
    const server_fixture fx;
    raw_connection conn(fx.server->port());
    std::uint8_t header[wire_header_size];
    encode_header(header, static_cast<std::uint8_t>(opcode::predict), 9,
                  0xFFFFFFFF); // 4 GiB payload claim, no body
    conn.send_all(std::span<const std::uint8_t>(header, sizeof(header)));
    const auto reply = first_frame(conn.drain());
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.op, op_error);
    EXPECT_EQ(load_u16(reply->payload.data()),
              static_cast<std::uint16_t>(wire_error::oversized));
}

TEST(WireFuzz, UnknownOpcodeAndBadPayloadKeepTheConnectionAlive) {
    const server_fixture fx;
    wire_client client = fx.connect();
    // Unknown opcode -> error frame, stream continues.
    std::vector<std::uint8_t> junk;
    append_frame(junk, 0x42, 1, {});
    client.send_bytes(junk);
    wire_frame reply = client.read_frame();
    EXPECT_EQ(reply.header.op, op_error);
    EXPECT_EQ(load_u16(reply.payload.data()),
              static_cast<std::uint16_t>(wire_error::bad_opcode));
    // Wrong-size predict payload -> error frame, stream continues.
    junk.clear();
    const std::uint8_t short_payload[3] = {
        static_cast<std::uint8_t>(query_kind::encoded), 1, 2};
    append_frame(junk, static_cast<std::uint8_t>(opcode::predict), 2,
                 short_payload);
    client.send_bytes(junk);
    reply = client.read_frame();
    EXPECT_EQ(reply.header.op, op_error);
    EXPECT_EQ(load_u16(reply.payload.data()),
              static_cast<std::uint16_t>(wire_error::bad_payload));
    // Unknown query kind -> error frame, stream continues.
    junk.clear();
    const std::uint8_t bad_kind[1] = {0x77};
    append_frame(junk, static_cast<std::uint8_t>(opcode::predict), 3, bad_kind);
    client.send_bytes(junk);
    reply = client.read_frame();
    EXPECT_EQ(reply.header.op, op_error);
    EXPECT_EQ(load_u16(reply.payload.data()),
              static_cast<std::uint16_t>(wire_error::bad_payload));
    // The connection still serves real traffic after all that.
    const predict_reply good = client.predict_encoded(fx.encoded_query(0));
    EXPECT_EQ(good.label, fx.model.snapshot().predict_encoded(fx.encoded_query(0)));
    client.ping();
}

TEST(WireFuzz, TruncatedFrameThenEofDisconnectsWithoutAReply) {
    const server_fixture fx;
    std::vector<std::uint8_t> frame;
    append_predict_encoded(frame, opcode::predict, 1, fx.encoded_query(0));
    {
        // Half a header, then EOF.
        raw_connection conn(fx.server->port());
        conn.send_all(std::span<const std::uint8_t>(frame.data(), 6));
        ::shutdown(conn.sock.get(), SHUT_WR);
        EXPECT_TRUE(conn.drain().empty()); // no reply, clean close
    }
    {
        // Full header, partial payload, then EOF.
        raw_connection conn(fx.server->port());
        conn.send_all(
            std::span<const std::uint8_t>(frame.data(), frame.size() - 3));
        ::shutdown(conn.sock.get(), SHUT_WR);
        EXPECT_TRUE(conn.drain().empty());
    }
    // The server is still healthy.
    wire_client client = fx.connect();
    client.ping();
}

TEST(WireFuzz, ByteAtATimeDeliveryHitsEverySplitBoundary) {
    // A pipelined multi-frame stream delivered one byte per send():
    // every possible partial-read boundary inside headers and payloads.
    const server_fixture fx;
    const hdc::inference_snapshot oracle = fx.model.snapshot();
    wire_client client = fx.connect();
    std::vector<std::uint8_t> stream;
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < 3; ++i) {
        const auto encoded = fx.encoded_query(i);
        append_predict_encoded(stream, opcode::predict,
                               static_cast<std::uint32_t>(i), encoded);
        expected.push_back(oracle.predict_encoded(encoded));
    }
    std::vector<std::uint8_t> ping_probe;
    append_frame(ping_probe, static_cast<std::uint8_t>(opcode::ping), 99, {});
    stream.insert(stream.end(), ping_probe.begin(), ping_probe.end());
    for (const std::uint8_t byte : stream) {
        client.send_bytes(std::span<const std::uint8_t>(&byte, 1));
    }
    // The pong is answered on the loop thread and may overtake the
    // engine-routed predict replies, and two engine workers may finish
    // one connection's micro-batches out of order: the protocol promises
    // only matching by request_id, so match replies that way.
    bool saw_pong = false;
    std::vector<bool> answered(expected.size(), false);
    for (std::size_t r = 0; r < 4; ++r) {
        const wire_frame reply = client.read_frame();
        if (reply.header.op == reply_opcode(opcode::ping)) {
            EXPECT_EQ(reply.header.request_id, 99u);
            saw_pong = true;
            continue;
        }
        EXPECT_EQ(reply.header.op, reply_opcode(opcode::predict));
        const auto parsed = parse_predict_reply(reply.payload);
        ASSERT_TRUE(parsed.has_value());
        ASSERT_LT(reply.header.request_id, expected.size());
        EXPECT_FALSE(answered[reply.header.request_id]) << "duplicate reply";
        answered[reply.header.request_id] = true;
        EXPECT_EQ(parsed->label, expected[reply.header.request_id]);
    }
    EXPECT_TRUE(saw_pong);
    EXPECT_EQ(std::count(answered.begin(), answered.end(), true), 3);
}

TEST(WireFuzz, MixedWriteSizesAcrossReadChunksAnswerEveryRequest) {
    // One pipelined stream sent in 1-byte, 4,109-byte (one D = 1024
    // encoded frame) and 70 KiB writes in turn: reads end mid-header and
    // mid-payload, one write overruns the reactor's 64 KiB read chunk, and
    // the read buffer grows, compacts and is reused across reads. Every
    // reply must still match the oracle.
    const server_fixture fx;
    const hdc::inference_snapshot oracle = fx.model.snapshot();
    wire_client client = fx.connect();
    std::vector<std::uint8_t> stream;
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < 160; ++i) {
        const auto encoded = fx.encoded_query(i);
        append_predict_encoded(stream, opcode::predict, static_cast<std::uint32_t>(i),
                               encoded);
        expected.push_back(oracle.predict_encoded(encoded));
    }
    const std::size_t writes[] = {1, 4109, 70 * 1024};
    std::size_t sent = 0;
    for (std::size_t k = 0; sent < stream.size(); ++k) {
        const std::size_t n = std::min(writes[k % 3], stream.size() - sent);
        client.send_bytes(std::span<const std::uint8_t>(stream.data() + sent, n));
        sent += n;
    }
    // Micro-batches of one connection may finish out of order: match
    // replies by request_id.
    std::vector<bool> answered(expected.size(), false);
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const wire_frame reply = client.read_frame();
        EXPECT_EQ(reply.header.op, reply_opcode(opcode::predict));
        const auto parsed = parse_predict_reply(reply.payload);
        ASSERT_TRUE(parsed.has_value());
        ASSERT_LT(reply.header.request_id, expected.size());
        EXPECT_FALSE(answered[reply.header.request_id]) << "duplicate reply";
        answered[reply.header.request_id] = true;
        EXPECT_EQ(parsed->label, expected[reply.header.request_id]);
    }
}

TEST(WireFuzz, RawFramesByteAtATimeHitEverySplitBoundary) {
    // The raw opcode under the frame fuzzer, through the engine's encode
    // stage: pipelined raw-feature frames delivered one byte per send()
    // must reassemble and answer bit-identically.
    const server_fixture fx;
    const hdc::inference_snapshot oracle = fx.model.snapshot();
    wire_client client = fx.connect();
    std::vector<std::uint8_t> stream;
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < 3; ++i) {
        append_predict_raw(stream, opcode::predict,
                           static_cast<std::uint32_t>(i), fx.test.image(i));
        expected.push_back(oracle.predict_encoded(fx.encoded_query(i)));
    }
    for (const std::uint8_t byte : stream) {
        client.send_bytes(std::span<const std::uint8_t>(&byte, 1));
    }
    // Micro-batches of one connection may finish out of order: match
    // replies by request_id.
    std::vector<bool> answered(expected.size(), false);
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const wire_frame reply = client.read_frame();
        EXPECT_EQ(reply.header.op, reply_opcode(opcode::predict));
        const auto parsed = parse_predict_reply(reply.payload);
        ASSERT_TRUE(parsed.has_value());
        ASSERT_LT(reply.header.request_id, expected.size());
        EXPECT_FALSE(answered[reply.header.request_id]) << "duplicate reply";
        answered[reply.header.request_id] = true;
        EXPECT_EQ(parsed->label, expected[reply.header.request_id]);
    }
}

TEST(WireFuzz, RawPredictWithWrongPixelCountGetsBadPayload) {
    // Wrong `pixels` length is a request-level error: error frame,
    // connection lives.
    const server_fixture fx;
    wire_client client = fx.connect();
    const std::size_t pixels = fx.test.image(0).size();
    for (const std::size_t bad_len : {pixels - 1, pixels + 7, std::size_t{0}}) {
        std::vector<std::uint8_t> junk;
        const std::vector<std::uint8_t> body(bad_len, 0x40);
        append_predict_raw(junk, opcode::predict, 5, body);
        client.send_bytes(junk);
        const wire_frame reply = client.read_frame();
        EXPECT_EQ(reply.header.op, op_error) << "bad_len=" << bad_len;
        EXPECT_EQ(load_u16(reply.payload.data()),
                  static_cast<std::uint16_t>(wire_error::bad_payload));
    }
    // Correctly-sized raw traffic still answers on the same stream.
    const predict_reply good = client.predict_raw(fx.test.image(0));
    EXPECT_EQ(good.label, fx.model.snapshot().predict_encoded(fx.encoded_query(0)));
}

TEST(WireFuzz, RawPredictOnAnEncoderlessEngineGetsUnsupported) {
    // An engine without an encoder cannot serve raw frames, and a trainer
    // does not change that: the server never encodes on a reactor.
    data::dataset train = data::make_synthetic_digits(120, 91);
    core::uhd_model model(server_fixture::make_config(), train.shape(),
                          train.num_classes(), hdc::train_mode::raw_sums,
                          hdc::query_mode::binarized);
    model.fit(train);
    serve::inference_engine engine(model.snapshot());
    for (core::uhd_model* trainer : {static_cast<core::uhd_model*>(nullptr), &model}) {
        wire_server server(engine, {}, trainer);
        server.start();
        wire_client client("127.0.0.1", server.port());
        client.set_recv_timeout_ms(recv_timeout_ms);
        std::vector<std::uint8_t> frame;
        append_predict_raw(frame, opcode::predict, 1, train.image(0));
        client.send_bytes(frame);
        const wire_frame reply = client.read_frame();
        EXPECT_EQ(reply.header.op, op_error) << "trainer=" << (trainer != nullptr);
        ASSERT_GE(reply.payload.size(), 2u);
        EXPECT_EQ(load_u16(reply.payload.data()),
                  static_cast<std::uint16_t>(wire_error::unsupported))
            << "trainer=" << (trainer != nullptr);
        // Pre-encoded traffic is unaffected.
        std::vector<std::int32_t> encoded(model.encoder().dim());
        model.encoder().encode(train.image(0), encoded);
        EXPECT_EQ(client.predict_encoded(encoded).label,
                  model.snapshot().predict_encoded(encoded));
        EXPECT_EQ(engine.stats().raw_queries, 0u);
        server.stop();
    }
}

TEST(WireFuzz, SeededRandomGarbageNeverCrashesTheServer) {
    const server_fixture fx;
    std::mt19937 rng(20240814);
    std::uniform_int_distribution<int> byte_dist(0, 255);
    std::uniform_int_distribution<int> len_dist(1, 512);
    for (int round = 0; round < 32; ++round) {
        raw_connection conn(fx.server->port());
        std::vector<std::uint8_t> garbage(
            static_cast<std::size_t>(len_dist(rng)));
        for (auto& b : garbage) b = static_cast<std::uint8_t>(byte_dist(rng));
        conn.send_all(garbage);
        ::shutdown(conn.sock.get(), SHUT_WR);
        (void)conn.drain(); // error frame, a reply, or just EOF — no hang
    }
    // After 32 rounds of garbage the server still answers correctly.
    wire_client client = fx.connect();
    const auto encoded = fx.encoded_query(0);
    EXPECT_EQ(client.predict_encoded(encoded).label,
              fx.model.snapshot().predict_encoded(encoded));
    const stats_reply stats = client.stats();
    EXPECT_GT(stats.malformed_frames, 0u);
}

} // namespace

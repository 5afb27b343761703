// Multi-reactor wire server tests: N SO_REUSEPORT epoll loops on one
// port must stay invisible to clients — every reply bit-identical to the
// snapshot oracle regardless of which reactor a connection lands on, the
// per-reactor stats shards must sum exactly to the aggregated stats(),
// partial_fit must stay serialized across reactors, and stop() racing
// in-flight traffic must tear every shard down cleanly. This suite also
// runs under TSan in CI (the mailbox/eventfd shutdown ordering and the
// trainer mutex are exactly the races TSan can see).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include "uhd/common/error.hpp"
#include "uhd/core/model.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/inference_snapshot.hpp"
#include "uhd/net/socket.hpp"
#include "uhd/net/wire_client.hpp"
#include "uhd/net/wire_server.hpp"
#include "uhd/serve/inference_engine.hpp"

namespace {

using namespace uhd;
using namespace uhd::net;

constexpr long recv_timeout_ms = 20000;

/// Serving fixture pinned to a reactor count; the engine carries the
/// encoder, so raw frames take the engine's encode stage.
struct sharded_fixture {
    data::dataset train = data::make_synthetic_digits(120, 91);
    data::dataset test = data::make_synthetic_digits(40, 92);
    core::uhd_model model;
    std::optional<serve::inference_engine> engine;
    std::optional<wire_server> server;

    explicit sharded_fixture(std::size_t reactors)
        : model(make_config(), train.shape(), train.num_classes(),
                hdc::train_mode::raw_sums, hdc::query_mode::binarized) {
        model.fit(train);
        serve::engine_options engine_options;
        engine_options.encoder = &model.encoder();
        engine.emplace(model.snapshot(), engine_options);
        wire_server_options options;
        options.reactors = reactors;
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

/// Field-wise shard sum, for comparing against the aggregated stats().
wire_stats sum_shards(const wire_server& server) {
    wire_stats total;
    for (std::size_t i = 0; i < server.reactor_count(); ++i) {
        total += server.reactor_stats(i);
    }
    return total;
}

TEST(WireReactors, ManyConnectionsAcrossReactorsAnswerBitIdentical) {
    const sharded_fixture fx(3);
    ASSERT_EQ(fx.server->reactor_count(), 3u);
    const hdc::inference_snapshot oracle = fx.model.snapshot();
    constexpr std::size_t n_conns = 8;
    constexpr std::size_t per_conn = 40;
    std::vector<std::thread> threads;
    std::atomic<std::size_t> mismatches{0};
    for (std::size_t t = 0; t < n_conns; ++t) {
        threads.emplace_back([&, t] {
            wire_client client = fx.connect();
            for (std::size_t q = 0; q < per_conn; ++q) {
                const auto encoded = fx.encoded_query(t * 17 + q);
                if (client.predict_encoded(encoded).label !=
                    oracle.predict_encoded(encoded)) {
                    mismatches.fetch_add(1);
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0u);
    const wire_stats total = fx.server->stats();
    EXPECT_EQ(total.connections_accepted, n_conns);
    EXPECT_GE(total.frames_in, n_conns * per_conn);
}

TEST(WireReactors, ShardStatsSumExactlyToAggregatedTotals) {
    sharded_fixture fx(4);
    constexpr std::size_t n_conns = 6;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < n_conns; ++t) {
        threads.emplace_back([&, t] {
            wire_client client = fx.connect();
            client.ping();
            for (std::size_t q = 0; q < 25; ++q) {
                (void)client.predict_encoded(fx.encoded_query(t + q));
            }
        });
    }
    for (auto& t : threads) t.join();
    // stop() first: it freezes the shards (and loop_cpu_ns stops
    // ticking), and the counters must survive it for exactly this kind
    // of post-run reading.
    fx.server->stop();
    const wire_stats total = fx.server->stats();
    const wire_stats summed = sum_shards(*fx.server);
    EXPECT_EQ(summed.connections_accepted, total.connections_accepted);
    EXPECT_EQ(summed.connections_active, total.connections_active);
    EXPECT_EQ(summed.frames_in, total.frames_in);
    EXPECT_EQ(summed.frames_out, total.frames_out);
    EXPECT_EQ(summed.bytes_in, total.bytes_in);
    EXPECT_EQ(summed.bytes_out, total.bytes_out);
    EXPECT_EQ(summed.malformed_frames, total.malformed_frames);
    EXPECT_EQ(summed.throttle_events, total.throttle_events);
    EXPECT_EQ(summed.loop_cpu_ns, total.loop_cpu_ns);
    EXPECT_EQ(summed.wake_writes, total.wake_writes);
    EXPECT_GT(total.loop_cpu_ns, 0u);
    EXPECT_EQ(total.connections_accepted, n_conns);
    EXPECT_EQ(total.connections_active, 0u);
    EXPECT_EQ(total.frames_in, n_conns * 26u);
}

TEST(WireReactors, StopCountsConnectionsStillOpenAsClosed) {
    // stop() tears down connections whose peers never hung up (or whose
    // hang-up the loop has not read yet): the frozen counters must not
    // report them as live.
    sharded_fixture fx(2);
    wire_client first = fx.connect();
    wire_client second = fx.connect();
    first.ping();
    second.ping(); // both accepted and registered before stop()
    fx.server->stop();
    const wire_stats total = fx.server->stats();
    EXPECT_EQ(total.connections_accepted, 2u);
    EXPECT_EQ(total.connections_active, 0u);
    EXPECT_EQ(sum_shards(*fx.server).connections_active, 0u);
}

/// Lowers this process's soft RLIMIT_NOFILE for the guard's lifetime.
class fd_limit_guard {
public:
    explicit fd_limit_guard(rlim_t soft) {
        if (::getrlimit(RLIMIT_NOFILE, &saved_) != 0) throw uhd::error("getrlimit");
        rlimit lowered = saved_;
        lowered.rlim_cur = soft;
        if (::setrlimit(RLIMIT_NOFILE, &lowered) != 0) throw uhd::error("setrlimit");
    }
    ~fd_limit_guard() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
    fd_limit_guard(const fd_limit_guard&) = delete;
    fd_limit_guard& operator=(const fd_limit_guard&) = delete;

private:
    rlimit saved_{};
};

TEST(WireReactors, DescriptorExhaustionShedsTheBacklogInsteadOfStallingIt) {
    // The listener is edge-triggered. A client that connects while every
    // descriptor is taken (accept4 fails with EMFILE) must be shed — it
    // sees EOF — instead of waiting in the backlog for another client's
    // edge; once descriptors are back, new clients are served.
    sharded_fixture fx(1);
    wire_client a = fx.connect();
    a.ping();

    // B's socket exists before the limit drops: only its connect happens
    // while the process has no descriptor left.
    socket_fd b(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    ASSERT_TRUE(b.valid());
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.server->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    {
        socket_fd probe(::open("/dev/null", O_RDONLY | O_CLOEXEC));
        ASSERT_TRUE(probe.valid());
        const auto lowest_free = static_cast<rlim_t>(probe.get());
        probe.reset();
        const fd_limit_guard limit(lowest_free + 4);
        std::vector<socket_fd> fillers; // destroyed before the limit returns
        int open_errno = 0;
        while (open_errno == 0) {
            const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
            if (fd < 0) {
                open_errno = errno;
            } else {
                fillers.emplace_back(fd);
            }
        }
        ASSERT_EQ(open_errno, EMFILE);
        ASSERT_EQ(::connect(b.get(), reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)),
                  0);
        pollfd ready{b.get(), POLLIN, 0};
        ASSERT_EQ(::poll(&ready, 1, 2000), 1) << "B still waits in the backlog";
        char byte = 0;
        EXPECT_EQ(::recv(b.get(), &byte, 1, 0), 0) << "B was not shed with EOF";
    }

    wire_client c = fx.connect();
    c.ping();
    a.ping();
    const wire_stats total = fx.server->stats();
    EXPECT_EQ(total.connections_accepted, 3u); // A, B (shed), C
    EXPECT_EQ(total.connections_active, 2u);
}

TEST(WireReactors, RawOffLoopEncodeAcrossReactorsMatchesOracle) {
    const sharded_fixture fx(2);
    const hdc::inference_snapshot oracle = fx.model.snapshot();
    constexpr std::size_t n_conns = 4;
    std::vector<std::thread> threads;
    std::atomic<std::size_t> mismatches{0};
    for (std::size_t t = 0; t < n_conns; ++t) {
        threads.emplace_back([&, t] {
            wire_client client = fx.connect();
            for (std::size_t q = 0; q < 30; ++q) {
                const std::size_t i = (t * 11 + q) % fx.test.size();
                if (client.predict_raw(fx.test.image(i)).label !=
                    oracle.predict_encoded(fx.encoded_query(i))) {
                    mismatches.fetch_add(1);
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0u);
    const serve::serve_stats engine_stats = fx.engine->stats();
    EXPECT_EQ(engine_stats.raw_queries, n_conns * 30u);
    EXPECT_GE(engine_stats.encode_kernel_calls, 1u);
    EXPECT_LE(engine_stats.encode_kernel_calls, engine_stats.raw_queries);
}

TEST(WireReactors, PipelinedBurstsWakeEachReactorAtMostOncePerMicroBatch) {
    // A worker hands each reactor a micro-batch's answers in one delivery
    // and writes the eventfd only when the mailbox was empty, so a reactor
    // is woken at most once per micro-batch, never once per request. The
    // bursts go one connection at a time, so every micro-batch belongs to
    // one reactor and the bound holds for the sum over shards too.
    for (const std::size_t reactors : {std::size_t{1}, std::size_t{2}}) {
        sharded_fixture fx(reactors);
        const hdc::inference_snapshot oracle = fx.model.snapshot();
        constexpr std::size_t burst_size = 64;
        std::size_t mismatches = 0;
        for (const bool raw : {false, true}) {
            for (std::size_t c = 0; c < 4; ++c) {
                wire_client client = fx.connect();
                std::vector<std::uint8_t> burst;
                std::vector<std::size_t> expected(burst_size);
                for (std::size_t i = 0; i < burst_size; ++i) {
                    const std::size_t q = c * 7 + i;
                    const auto id = static_cast<std::uint32_t>(i);
                    if (raw) {
                        append_predict_raw(burst, opcode::predict, id,
                                           fx.test.image(q % fx.test.size()));
                    } else {
                        append_predict_encoded(burst, opcode::predict, id,
                                               fx.encoded_query(q));
                    }
                    expected[i] = oracle.predict_encoded(fx.encoded_query(q));
                }
                client.send_bytes(burst);
                for (std::size_t r = 0; r < burst_size; ++r) {
                    const wire_frame reply = client.read_frame();
                    const auto parsed = parse_predict_reply(reply.payload);
                    if (!parsed.has_value() || reply.header.request_id >= burst_size ||
                        parsed->label != expected[reply.header.request_id]) {
                        ++mismatches;
                    }
                }
            }
        }
        EXPECT_EQ(mismatches, 0u) << "reactors=" << reactors;
        fx.server->stop(); // quiesce
        const wire_stats wire = fx.server->stats();
        const serve::serve_stats engine_stats = fx.engine->stats();
        EXPECT_EQ(engine_stats.queries, 2 * 4 * burst_size);
        EXPECT_GE(wire.wake_writes, 1u);
        EXPECT_LE(wire.wake_writes, engine_stats.batches) << "reactors=" << reactors;
    }
}

TEST(WireReactors, PartialFitStaysSerializedAcrossReactors) {
    // Concurrent partial_fit from connections on different reactors: the
    // trainer mutex must hand out strictly unique cumulative update
    // counts — merged across clients they are exactly 1..total.
    sharded_fixture fx(3);
    const data::dataset stream = data::make_synthetic_digits(48, 93);
    constexpr std::size_t n_conns = 4;
    const std::size_t per_conn = stream.size() / n_conns;
    std::vector<std::vector<std::uint64_t>> seen(n_conns);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < n_conns; ++t) {
        threads.emplace_back([&, t] {
            wire_client client = fx.connect();
            for (std::size_t q = 0; q < per_conn; ++q) {
                const std::size_t i = t * per_conn + q;
                const partial_fit_reply reply = client.partial_fit(
                    static_cast<std::uint32_t>(stream.label(i)),
                    stream.image(i));
                seen[t].push_back(reply.updates);
            }
        });
    }
    for (auto& t : threads) t.join();
    std::vector<std::uint64_t> merged;
    for (const auto& s : seen) {
        // Each connection observes its own counts strictly increasing.
        EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
        merged.insert(merged.end(), s.begin(), s.end());
    }
    std::sort(merged.begin(), merged.end());
    ASSERT_EQ(merged.size(), n_conns * per_conn);
    for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i], i + 1) << "duplicate or lost update count";
    }
}

TEST(WireReactors, StopRacingInflightTrafficShutsDownCleanly) {
    // stop() while every reactor still has pipelined requests in flight:
    // shard teardown must wait out engine callbacks on each mailbox (no
    // use-after-free, no hang). Run a few rounds to vary the interleaving.
    for (int round = 0; round < 3; ++round) {
        sharded_fixture fx(3);
        std::vector<std::uint8_t> burst;
        for (std::size_t i = 0; i < 48; ++i) {
            append_predict_encoded(burst, opcode::predict,
                                   static_cast<std::uint32_t>(i),
                                   fx.encoded_query(i));
        }
        std::vector<wire_client> clients;
        for (std::size_t c = 0; c < 6; ++c) {
            clients.push_back(fx.connect());
            clients.back().send_bytes(burst);
        }
        fx.server->stop(); // races the in-flight answers on purpose
        fx.server.reset();
        fx.engine.reset();
    }
}

TEST(WireReactors, ReactorCountResolvesFromEnvAndValidates) {
    data::dataset train = data::make_synthetic_digits(60, 91);
    core::uhd_model model(sharded_fixture::make_config(), train.shape(),
                          train.num_classes(), hdc::train_mode::raw_sums,
                          hdc::query_mode::binarized);
    model.fit(train);
    serve::inference_engine engine(model.snapshot());
    // Explicit option wins; 0 defers to UHD_NET_REACTORS (default 1).
    ::setenv("UHD_NET_REACTORS", "2", 1);
    {
        wire_server server(engine, {});
        server.start();
        EXPECT_EQ(server.reactor_count(), 2u);
        server.stop();
    }
    {
        wire_server_options options;
        options.reactors = 3;
        wire_server server(engine, options);
        server.start();
        EXPECT_EQ(server.reactor_count(), 3u);
        server.stop();
    }
    // Out-of-range values throw on the constructing thread; unparseable
    // text falls back to the default (the env_int convention).
    ::setenv("UHD_NET_REACTORS", "0", 1);
    EXPECT_THROW(wire_server(engine, {}), uhd::error);
    ::setenv("UHD_NET_REACTORS", "1000", 1);
    EXPECT_THROW(wire_server(engine, {}), uhd::error);
    ::setenv("UHD_NET_REACTORS", "junk", 1);
    {
        wire_server server(engine, {});
        server.start();
        EXPECT_EQ(server.reactor_count(), 1u);
        server.stop();
    }
    ::unsetenv("UHD_NET_REACTORS");
}

} // namespace

#include "ladder.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/net/wire_client.hpp"

namespace perfbench {

using namespace uhd;

namespace {

/// Calls timed per single-call rung (ping, publish, partial_fit, snapshot).
constexpr std::size_t single_calls = 200;

double per(std::int64_t ns, std::size_t n) {
    return n == 0 ? 0.0 : static_cast<double>(ns) * 1e-3 / static_cast<double>(n);
}

/// Waits for one micro-batch of engine callbacks.
struct batch_wait {
    std::mutex mutex;
    std::condition_variable all_done;
    std::size_t done = 0;
    std::vector<std::size_t> labels;
    std::vector<char> ok;
};

/// Median wall time of `calls` calls of `fn`, microseconds.
template <typename Fn>
double median_call_us(std::size_t calls, Fn&& fn) {
    std::vector<double> us;
    us.reserve(calls);
    for (std::size_t i = 0; i < calls; ++i) {
        const std::int64_t t0 = now_ns();
        fn(i);
        us.push_back(per(now_ns() - t0, 1));
    }
    return median(std::move(us));
}

} // namespace

ladder_result run_ladder(const workload_spec& spec, const server_inputs& server,
                         const client_inputs& client, const oracle& oracle,
                         std::uint16_t port, std::uint64_t version, double seconds,
                         trace_log& trace) {
    ladder_result out;
    const core::uhd_model& model = *oracle.initial().model;
    const core::uhd_encoder& encoder = model.encoder();
    const hdc::inference_snapshot* snap = oracle.snapshot(version);
    UHD_REQUIRE(snap != nullptr, "ladder: the server's snapshot is unknown");
    // The workload's own cascade, or one calibrated just for this rung.
    const bool cascade_on_path = spec.dynamic_every != 0;
    const hdc::dynamic_query_policy policy =
        cascade_on_path ? *oracle.initial().policy
                        : model.calibrate_dynamic(server.calibration, 0.99);

    const serve::engine_options options = engine_options_for(spec, model);
    const auto engine =
        cascade_on_path
            ? std::make_unique<serve::inference_engine>(*snap, policy, options)
            : std::make_unique<serve::inference_engine>(*snap, options);
    net::wire_client wire("127.0.0.1", port);
    wire.set_recv_timeout_ms(30000);

    const std::size_t pixels = encoder.pixels();
    const std::size_t dim = spec.dim;
    const std::size_t words = snap->words_per_class();
    const std::size_t n = max_batch;
    std::vector<std::uint32_t> idx(n);
    std::vector<std::uint8_t> images(n * pixels);
    std::vector<std::int32_t> encoded(n * dim);
    std::vector<std::uint64_t> packed(n * words);
    std::vector<std::uint64_t> packed_full;
    std::vector<std::uint64_t> packed_dyn;
    std::vector<std::size_t> full_of;
    std::vector<std::size_t> dyn_of;
    std::vector<std::size_t> answers(n);
    std::vector<hdc::dynamic_query_stats> cascade_stats(n);
    std::vector<std::vector<std::int32_t>> encoded_requests(n);
    std::vector<std::vector<std::uint8_t>> raw_requests(n);
    std::vector<std::uint8_t> burst;

    std::vector<double> encode_us, binarize_us, search_us, cascade_us, engine_us;
    std::vector<double> share_search, share_cascade; ///< per query of the whole batch
    struct batch_ids {
        std::uint64_t root = 0;
        std::uint64_t engine = 0;
    };
    std::vector<batch_ids> ids;
    std::uint64_t words_scanned = 0;
    std::uint64_t cascaded = 0;

    // Engine and wire answers are requests: each is checked like the drive's.
    const auto check = [&](std::size_t pool_index, std::size_t label, bool ok) {
        ++out.attempted;
        const auto expected = oracle.label(pool_index, version);
        if (!ok || !expected.has_value() || *expected != label) ++out.failed;
    };

    const std::size_t min_batches = (client.pool.size() + n - 1) / n;
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    std::size_t cursor = 0;
    for (std::uint64_t b = 0; b < min_batches || now_ns() < deadline; ++b) {
        for (std::size_t j = 0; j < n; ++j) {
            idx[j] = client.order[cursor++ % client.order.size()];
            const auto img = client.pool.image(idx[j]);
            std::copy(img.begin(), img.end(), images.begin() + static_cast<std::ptrdiff_t>(j * pixels));
        }

        // core.encode, common.binarize
        const std::int64_t t0 = now_ns();
        encoder.encode_batch(images, n, encoded);
        const std::int64_t t1 = now_ns();
        for (std::size_t j = 0; j < n; ++j) {
            kernels::sign_binarize(encoded.data() + j * dim, dim, packed.data() + j * words);
        }
        const std::int64_t t2 = now_ns();

        // hdc.search over the full-scan queries, hdc.cascade over the rest
        full_of.clear();
        dyn_of.clear();
        for (std::size_t j = 0; j < n; ++j) {
            (cascade_on_path && oracle.dynamic(idx[j]) ? dyn_of : full_of).push_back(j);
        }
        const auto gather = [&](const std::vector<std::size_t>& of,
                                std::vector<std::uint64_t>& block) {
            block.resize(of.size() * words);
            for (std::size_t g = 0; g < of.size(); ++g) {
                std::copy_n(packed.data() + of[g] * words, words, block.data() + g * words);
            }
        };
        gather(full_of, packed_full);
        if (cascade_on_path) {
            gather(dyn_of, packed_dyn);
        } else {
            packed_dyn = packed; // off the path: cascade the whole batch
            dyn_of.resize(n);
            for (std::size_t j = 0; j < n; ++j) dyn_of[j] = j;
        }
        const std::int64_t t3 = now_ns();
        snap->predict_packed_block(packed_full, full_of.size(),
                                   std::span(answers.data(), full_of.size()));
        const std::int64_t t4 = now_ns();
        policy.answer_block(*snap, packed_dyn, dyn_of.size(),
                            std::span(answers.data(), dyn_of.size()),
                            std::span(cascade_stats.data(), dyn_of.size()));
        const std::int64_t t5 = now_ns();
        for (std::size_t g = 0; g < dyn_of.size(); ++g) {
            words_scanned += cascade_stats[g].words_scanned;
        }
        cascaded += dyn_of.size();

        // serve.engine: one micro-batch through the in-process engine
        for (std::size_t j = 0; j < n; ++j) {
            if (spec.raw) {
                const auto img = client.pool.image(idx[j]);
                raw_requests[j].assign(img.begin(), img.end());
            } else {
                const auto q = oracle.encoded_pool().subspan(idx[j] * dim, dim);
                encoded_requests[j].assign(q.begin(), q.end());
            }
        }
        batch_wait wait;
        wait.labels.assign(n, 0);
        wait.ok.assign(n, 0);
        const std::int64_t t6 = now_ns();
        for (std::size_t j = 0; j < n; ++j) {
            serve::answer_callback done = [&wait, j, n](std::size_t label, std::uint64_t,
                                                        std::exception_ptr error) {
                const std::lock_guard<std::mutex> lock(wait.mutex);
                wait.labels[j] = label;
                wait.ok[j] = error == nullptr ? 1 : 0;
                if (++wait.done == n) wait.all_done.notify_one();
            };
            const bool dynamic = cascade_on_path && oracle.dynamic(idx[j]);
            const bool queued =
                spec.raw ? engine->try_submit_raw(raw_requests[j], std::move(done), dynamic)
                         : engine->try_submit(encoded_requests[j], std::move(done), dynamic);
            UHD_REQUIRE(queued, "ladder: engine queue full");
        }
        {
            std::unique_lock<std::mutex> lock(wait.mutex);
            wait.all_done.wait(lock, [&] { return wait.done == n; });
        }
        const std::int64_t t7 = now_ns();
        for (std::size_t j = 0; j < n; ++j) check(idx[j], wait.labels[j], wait.ok[j] != 0);

        // net.roundtrip: the same batch, pipelined over the wire
        burst.clear();
        for (std::size_t j = 0; j < n; ++j) {
            const net::opcode op = cascade_on_path && oracle.dynamic(idx[j])
                                       ? net::opcode::predict_dynamic
                                       : net::opcode::predict;
            if (spec.raw) {
                net::append_predict_raw(burst, op, static_cast<std::uint32_t>(j),
                                        client.pool.image(idx[j]));
            } else {
                net::append_predict_encoded(burst, op, static_cast<std::uint32_t>(j),
                                            oracle.encoded_pool().subspan(idx[j] * dim, dim));
            }
        }
        std::vector<net::wire_frame> replies(n);
        const std::int64_t t8 = now_ns();
        wire.send_bytes(burst);
        for (std::size_t j = 0; j < n; ++j) replies[j] = wire.read_frame();
        const std::int64_t t9 = now_ns();
        for (const net::wire_frame& reply : replies) {
            const auto parsed = net::parse_predict_reply(reply.payload);
            const std::size_t j = reply.header.request_id;
            if (j >= n) {
                ++out.attempted;
                ++out.failed;
                continue;
            }
            check(idx[j], parsed ? parsed->label : 0,
                  parsed.has_value() && (reply.header.op & net::reply_bit) != 0 &&
                      reply.header.op != net::op_error &&
                      parsed->snapshot_version == version);
        }

        const std::uint64_t root = trace.add("net.roundtrip", t8, t9, 0, b);
        const std::uint64_t eng = trace.add("serve.engine", t6, t7, root, b);
        trace.add(spec.raw ? "core.encode" : "core.encode.offpath", t0, t1,
                  spec.raw ? eng : 0, b);
        trace.add("common.binarize", t1, t2, eng, b);
        if (!full_of.empty()) trace.add("hdc.search", t3, t4, eng, b);
        trace.add(cascade_on_path ? "hdc.cascade" : "hdc.cascade.offpath", t4, t5,
                  cascade_on_path ? eng : 0, b);
        ids.push_back({root, eng});

        encode_us.push_back(per(t1 - t0, n));
        binarize_us.push_back(per(t2 - t1, n));
        if (!full_of.empty()) search_us.push_back(per(t4 - t3, full_of.size()));
        if (!dyn_of.empty()) cascade_us.push_back(per(t5 - t4, dyn_of.size()));
        engine_us.push_back(per(t7 - t6, n));
        share_search.push_back(per(t4 - t3, n));
        share_cascade.push_back(per(t5 - t4, n));
        ++out.batches;
    }

    // Self times from the recorded spans (span minus its children).
    const std::vector<std::int64_t> self = trace.self_ns();
    std::vector<double> serve_self, net_self;
    for (const batch_ids& b : ids) {
        serve_self.push_back(per(self[b.engine - 1], n));
        net_self.push_back(per(self[b.root - 1], n));
    }

    out.encode_us = median(encode_us);
    out.binarize_us = median(binarize_us);
    out.search_us = median(search_us);
    out.cascade_us = median(cascade_us);
    out.cascade_words = static_cast<double>(words_scanned) / static_cast<double>(cascaded);
    out.engine_us = median(engine_us);
    out.serve_self_us = median(serve_self);
    out.net_self_us = median(net_self);
    if (spec.raw) out.path.push_back({"core.encode", out.encode_us});
    out.path.push_back({"common.binarize", out.binarize_us});
    out.path.push_back({"hdc.search", median(share_search)});
    if (cascade_on_path) out.path.push_back({"hdc.cascade", median(share_cascade)});
    out.path.push_back({"serve.self", out.serve_self_us});
    out.path.push_back({"net.self", out.net_self_us});

    // Single-call rungs.
    out.ping_us = median_call_us(single_calls, [&](std::size_t) { wire.ping(); });
    std::vector<hdc::inference_snapshot> copies(single_calls, *snap);
    out.publish_us = median_call_us(single_calls, [&](std::size_t i) {
        engine->publish(std::move(copies[i]));
    });
    core::uhd_model trainer(model);
    const std::size_t fits = std::min(single_calls, client.fit_stream.size());
    out.partial_fit_us = median_call_us(fits, [&](std::size_t i) {
        trainer.partial_fit(client.fit_stream.image(i), client.fit_stream.label(i));
    });
    std::size_t sink = 0;
    out.snapshot_us = median_call_us(single_calls, [&](std::size_t) {
        sink += trainer.snapshot().classes();
    });
    UHD_REQUIRE(sink == single_calls * spec.classes, "ladder: snapshot lost classes");
    engine->stop();
    return out;
}

} // namespace perfbench

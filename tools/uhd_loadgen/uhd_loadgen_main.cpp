// uhd_loadgen: saturating wire-protocol load generator + correctness
// oracle. Two modes (UHD_LOADGEN_MODE):
//
// * wire (default): opens N pipelined connections to a uhd_serve
//   instance, drives predict (or predict_dynamic / raw-feature) traffic
//   to saturation, and verifies EVERY reply bit-identical against an
//   in-process inference_snapshot oracle rebuilt from the same
//   deterministic workload — then emits wire-level p50/p99/throughput as
//   BENCH_serve.json schema v5 (results: null, wire populated,
//   wire.scaling null).
// * sweep: reactor-scaling study, fully in-process. For each reactor
//   count in UHD_LOADGEN_SWEEP_REACTORS (default "1,2") it starts its
//   own engine + wire_server and drives encoded and raw payloads over
//   loopback — raw through the engine's encode stage, the server's only
//   raw path — recording qps/p50/p99, per-reactor CPU utilization
//   (loop_cpu_ns / wall) and the encode-stage accounting into the
//   schema v5 wire.scaling section.
//
// Bit-identity is a hard exit gate in BOTH modes; throughput ratios are
// recorded in gates as telemetry (shared CI boxes — and this one exposes
// a single CPU, so reactor scaling cannot express itself locally).
//
//   ./uhd_serve & ./uhd_loadgen            # ephemeral port via port file
//   UHD_LOADGEN_MODE=sweep ./uhd_loadgen   # self-contained scaling study
//
// Knobs: UHD_LOADGEN_MODE, UHD_LOADGEN_HOST/PORT/PORT_FILE,
// UHD_LOADGEN_CONNECTIONS, UHD_LOADGEN_PIPELINE (in-flight frames per
// connection), UHD_LOADGEN_REQUESTS (per connection), UHD_LOADGEN_KIND
// (encoded|raw), UHD_LOADGEN_DYNAMIC, UHD_LOADGEN_SWEEP_REACTORS,
// UHD_LOADGEN_JSON, UHD_LOADGEN_BASELINE_JSON (in-process
// BENCH_serve.json for the wire/in-process ratio), UHD_BENCH_SERVE_DIM
// (must match the server's).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "uhd/common/config.hpp"
#include "uhd/common/cpu_features.hpp"
#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/hdc/dynamic_query.hpp"
#include "uhd/hdc/inference_snapshot.hpp"
#include "uhd/net/wire_client.hpp"
#include "uhd/net/wire_format.hpp"
#include "uhd/net/wire_server.hpp"
#include "uhd/serve/inference_engine.hpp"
#include "workload.hpp"

namespace {

using namespace uhd;

std::size_t env_count(const char* name, std::int64_t fallback) {
    const std::int64_t value = env_int(name, fallback);
    return static_cast<std::size_t>(value < 1 ? 1 : value);
}

/// Same backend attribution block as the BENCH_*.json emitters.
void write_backend_json(std::FILE* f) {
    std::fprintf(f, "  \"backend\": {\"selected\": \"%s\", \"override\": ",
                 kernels::active().name);
    const std::string_view override_value = kernels::backend_override();
    if (override_value.empty()) {
        std::fprintf(f, "null");
    } else {
        std::fprintf(f, "\"%.*s\"", static_cast<int>(override_value.size()),
                     override_value.data());
    }
    std::fprintf(f, ", \"cpu\": \"%s\", \"compiled\": [",
                 cpu().to_string().c_str());
    const auto compiled = kernels::compiled_backends();
    for (std::size_t i = 0; i < compiled.size(); ++i) {
        std::fprintf(f, "\"%s\"%s", compiled[i]->name,
                     i + 1 < compiled.size() ? ", " : "");
    }
    std::fprintf(f, "]},\n");
}

double percentile_us(const std::vector<double>& sorted_us, double p) {
    if (sorted_us.empty()) return 0.0;
    const double rank = p * static_cast<double>(sorted_us.size() - 1);
    return sorted_us[static_cast<std::size_t>(rank + 0.5)];
}

/// Pull "throughput_qps": <num> out of an in-process BENCH_serve.json.
std::optional<double> baseline_qps(const std::string& path) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    const std::string key = "\"throughput_qps\": ";
    const std::size_t pos = text.find(key);
    if (pos == std::string::npos) return std::nullopt;
    return std::strtod(text.c_str() + pos + key.size(), nullptr);
}

struct connection_result {
    std::vector<double> latencies_us;
    std::size_t mismatches = 0;
    std::size_t version_mismatches = 0;
    std::string error; ///< non-empty: the connection failed outright
};

/// One measurement drive: what to send, where, and how hard.
struct drive_config {
    std::string host;
    std::uint16_t port = 0;
    std::size_t connections = 0;
    std::size_t per_conn = 0;
    std::size_t pipeline = 0;
    std::size_t pool = 0;
    const std::vector<std::vector<std::uint8_t>>* frames = nullptr;
    const std::vector<std::uint32_t>* expected = nullptr;
    net::opcode op = net::opcode::predict;
};

/// One drive's aggregated measurements.
struct drive_stats {
    double qps = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double wall_s = 0.0;
    std::size_t total = 0;
    std::size_t samples = 0;
    std::size_t mismatches = 0;
    std::size_t version_mismatches = 0;
    bool bit_identity = false;
    std::string error; ///< first connection failure, if any
};

/// Saturate the server per `cfg` and check every reply against the
/// oracle's expected labels. Pure measurement: no JSON, no exit.
drive_stats drive(const drive_config& cfg) {
    std::vector<connection_result> results(cfg.connections);
    std::vector<std::thread> threads;
    threads.reserve(cfg.connections);
    const auto wall_start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < cfg.connections; ++c) {
        threads.emplace_back([&, c] {
            connection_result& result = results[c];
            try {
                net::wire_client client(cfg.host, cfg.port);
                client.set_recv_timeout_ms(30000);
                result.latencies_us.reserve(cfg.per_conn);
                std::vector<std::uint8_t> burst;
                std::vector<std::chrono::steady_clock::time_point> sent_at(
                    cfg.per_conn);
                std::optional<std::uint64_t> version_seen;
                std::size_t sent = 0;
                std::size_t received = 0;
                while (received < cfg.per_conn) {
                    if (sent < cfg.per_conn && sent - received < cfg.pipeline) {
                        // Refill the window in one send: patch each
                        // frame's request_id, stamp, go.
                        burst.clear();
                        const auto now = std::chrono::steady_clock::now();
                        while (sent < cfg.per_conn &&
                               sent - received < cfg.pipeline) {
                            const std::size_t q = (c * 7919 + sent) % cfg.pool;
                            const std::size_t base = burst.size();
                            burst.insert(burst.end(), (*cfg.frames)[q].begin(),
                                         (*cfg.frames)[q].end());
                            net::store_u32(burst.data() + base + 4,
                                           static_cast<std::uint32_t>(sent));
                            sent_at[sent] = now;
                            ++sent;
                        }
                        client.send_bytes(burst);
                    }
                    const net::wire_frame reply = client.read_frame();
                    const auto now = std::chrono::steady_clock::now();
                    if (reply.header.op != net::reply_opcode(cfg.op)) {
                        result.error = "unexpected reply opcode " +
                                       std::to_string(reply.header.op);
                        return;
                    }
                    const auto parsed = net::parse_predict_reply(reply.payload);
                    if (!parsed.has_value()) {
                        result.error = "malformed predict reply";
                        return;
                    }
                    const std::size_t id = reply.header.request_id;
                    if (id >= cfg.per_conn) {
                        result.error = "reply id out of range";
                        return;
                    }
                    const std::size_t q = (c * 7919 + id) % cfg.pool;
                    if (parsed->label != (*cfg.expected)[q]) ++result.mismatches;
                    // Snapshot-version coherence: a static server must
                    // answer every request from the same published state.
                    if (version_seen.has_value() &&
                        *version_seen != parsed->snapshot_version) {
                        ++result.version_mismatches;
                    }
                    version_seen = parsed->snapshot_version;
                    result.latencies_us.push_back(
                        std::chrono::duration<double, std::micro>(
                            now - sent_at[id])
                            .count());
                    ++received;
                }
            } catch (const std::exception& e) {
                result.error = e.what();
            }
        });
    }
    for (auto& t : threads) t.join();

    drive_stats out;
    out.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
    std::vector<double> merged;
    for (const connection_result& result : results) {
        if (!result.error.empty() && out.error.empty()) out.error = result.error;
        merged.insert(merged.end(), result.latencies_us.begin(),
                      result.latencies_us.end());
        out.mismatches += result.mismatches;
        out.version_mismatches += result.version_mismatches;
    }
    std::sort(merged.begin(), merged.end());
    out.p50 = percentile_us(merged, 0.50);
    out.p99 = percentile_us(merged, 0.99);
    out.total = cfg.connections * cfg.per_conn;
    out.samples = merged.size();
    out.qps = out.wall_s > 0.0 ? static_cast<double>(out.total) / out.wall_s
                               : 0.0;
    out.bit_identity = out.error.empty() && out.mismatches == 0 &&
                       out.version_mismatches == 0 &&
                       out.samples == out.total;
    return out;
}

/// Full-scan expected labels for the whole query pool (the oracle; valid
/// for encoded AND raw payloads — encode_batch is bit-identical to the
/// server-side encode).
std::vector<std::uint32_t> expected_full_scan(
    const uhd_loadgen::workload& work, const hdc::inference_snapshot& oracle) {
    std::vector<std::uint32_t> expected(work.test.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        expected[i] = static_cast<std::uint32_t>(oracle.predict_encoded(
            std::span<const std::int32_t>(work.queries.data() + i * work.dim,
                                          work.dim)));
    }
    return expected;
}

/// Pre-serialized request frames for the pool (request_id patched later).
std::vector<std::vector<std::uint8_t>> make_frames(
    const uhd_loadgen::workload& work, net::opcode op, bool raw_kind) {
    std::vector<std::vector<std::uint8_t>> frames(work.test.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
        if (raw_kind) {
            net::append_predict_raw(frames[i], op, 0, work.test.image(i));
        } else {
            net::append_predict_encoded(
                frames[i], op, 0,
                std::span<const std::int32_t>(work.queries.data() + i * work.dim,
                                              work.dim));
        }
    }
    return frames;
}

/// One row of the wire.scaling section.
struct sweep_row {
    std::size_t reactors = 0;
    bool raw = false;
    drive_stats st;
    std::vector<double> reactor_cpu; ///< loop_cpu_ns / wall, per reactor
    std::uint64_t raw_queries = 0;
    std::uint64_t encode_kernel_calls = 0;
    bool shard_sum_ok = false; ///< shards sum to the aggregate stats()
};

/// Parse "1,2,4" into reactor counts (clamped to [1, 256]).
std::vector<std::size_t> parse_reactor_list(const std::string& spec) {
    std::vector<std::size_t> out;
    std::stringstream stream(spec);
    std::string item;
    while (std::getline(stream, item, ',')) {
        const long long value = std::strtoll(item.c_str(), nullptr, 10);
        if (value >= 1 && value <= 256) {
            out.push_back(static_cast<std::size_t>(value));
        }
    }
    if (out.empty()) out.push_back(1);
    return out;
}

} // namespace

int main() {
    const std::string mode = env_string("UHD_LOADGEN_MODE", "wire");
    const std::string host = env_string("UHD_LOADGEN_HOST", "127.0.0.1");
    const std::string port_file =
        env_string("UHD_LOADGEN_PORT_FILE", "uhd_serve.port");
    long long port_knob = env_int("UHD_LOADGEN_PORT", 0);
    const std::size_t connections = env_count("UHD_LOADGEN_CONNECTIONS", 4);
    const std::size_t pipeline = env_count("UHD_LOADGEN_PIPELINE", 32);
    const std::size_t per_conn = env_count("UHD_LOADGEN_REQUESTS", 25000);
    const std::string kind_name = env_string("UHD_LOADGEN_KIND", "encoded");
    const bool dynamic = env_bool("UHD_LOADGEN_DYNAMIC", false);
    const std::string json_path =
        env_string("UHD_LOADGEN_JSON", "BENCH_serve.json");
    const std::string baseline_path = env_string("UHD_LOADGEN_BASELINE_JSON", "");
    const bool raw_kind = kind_name == "raw";
    if (!raw_kind && kind_name != "encoded") {
        std::fprintf(stderr, "UHD_LOADGEN_KIND must be encoded or raw\n");
        return 1;
    }
    const bool sweep_mode = mode == "sweep";
    if (!sweep_mode && mode != "wire") {
        std::fprintf(stderr, "UHD_LOADGEN_MODE must be wire or sweep\n");
        return 1;
    }

    // Oracle: the same deterministic workload the server built. Expected
    // labels are computed in THIS process; any wire divergence is a real
    // serving bug, not environment noise.
    uhd_loadgen::workload work = uhd_loadgen::make_workload();
    const hdc::inference_snapshot oracle = work.model.snapshot();
    const std::size_t pool = work.test.size();

    const std::optional<double> parsed_baseline =
        baseline_path.empty() ? std::nullopt : baseline_qps(baseline_path);
    const bool have_baseline = parsed_baseline.has_value();
    const double baseline_value = have_baseline ? *parsed_baseline : 0.0;

    std::FILE* f = nullptr;
    const auto open_json = [&]() -> bool {
        f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return false;
        }
        return true;
    };

    if (sweep_mode) {
        // ---- reactor-scaling study: in-process servers over loopback ----
        const std::vector<std::size_t> reactor_counts = parse_reactor_list(
            env_string("UHD_LOADGEN_SWEEP_REACTORS", "1,2"));
        const std::vector<std::uint32_t> expected =
            expected_full_scan(work, oracle);
        const std::vector<std::vector<std::uint8_t>> encoded_frames =
            make_frames(work, net::opcode::predict, false);
        const std::vector<std::vector<std::uint8_t>> raw_frames =
            make_frames(work, net::opcode::predict, true);

        struct plan_entry {
            std::size_t reactors;
            bool raw;
        };
        std::vector<plan_entry> plan;
        for (const std::size_t n : reactor_counts) plan.push_back({n, false});
        for (const std::size_t n : reactor_counts) plan.push_back({n, true});

        std::vector<sweep_row> rows;
        for (const plan_entry& entry : plan) {
            serve::engine_options engine_options;
            engine_options.workers = env_count("UHD_SERVE_WORKERS", 2);
            engine_options.max_batch = env_count("UHD_SERVE_BATCH", 32);
            engine_options.encoder = &work.model.encoder();
            serve::inference_engine engine(work.model.snapshot(),
                                           engine_options);
            net::wire_server_options server_options;
            server_options.reactors = entry.reactors;
            net::wire_server server(engine, server_options);
            server.start();

            drive_config cfg;
            cfg.host = "127.0.0.1";
            cfg.port = server.port();
            cfg.connections = connections;
            cfg.per_conn = per_conn;
            cfg.pipeline = pipeline;
            cfg.pool = pool;
            cfg.frames = entry.raw ? &raw_frames : &encoded_frames;
            cfg.expected = &expected;
            cfg.op = net::opcode::predict;

            sweep_row row;
            row.reactors = entry.reactors;
            row.raw = entry.raw;
            row.st = drive(cfg);
            // Per-reactor utilization + the shard-sum invariant, read
            // before stop() tears anything down.
            const net::wire_stats total = server.stats();
            net::wire_stats summed;
            for (std::size_t i = 0; i < server.reactor_count(); ++i) {
                const net::wire_stats shard = server.reactor_stats(i);
                summed += shard;
                row.reactor_cpu.push_back(
                    row.st.wall_s > 0.0
                        ? static_cast<double>(shard.loop_cpu_ns) /
                              (row.st.wall_s * 1e9)
                        : 0.0);
            }
            row.shard_sum_ok = summed.frames_in == total.frames_in &&
                               summed.frames_out == total.frames_out &&
                               summed.bytes_in == total.bytes_in &&
                               summed.bytes_out == total.bytes_out &&
                               summed.connections_accepted ==
                                   total.connections_accepted;
            const serve::serve_stats engine_stats = engine.stats();
            row.raw_queries = engine_stats.raw_queries;
            row.encode_kernel_calls = engine_stats.encode_kernel_calls;
            server.stop();
            engine.stop();

            std::printf("# sweep reactors=%zu kind=%s: %.0f qps, p50 %.1f us, "
                        "p99 %.1f us, bit_identity=%d, shard_sum_ok=%d, "
                        "encode_calls=%llu\n",
                        row.reactors, row.raw ? "raw" : "encoded", row.st.qps,
                        row.st.p50, row.st.p99, row.st.bit_identity ? 1 : 0,
                        row.shard_sum_ok ? 1 : 0,
                        static_cast<unsigned long long>(row.encode_kernel_calls));
            rows.push_back(std::move(row));
        }

        // Ratio telemetry: encoded wire at max reactors vs the in-process
        // baseline.
        double encoded_best = 0.0;
        bool all_identical = true;
        bool all_shards_ok = true;
        for (const sweep_row& row : rows) {
            all_identical = all_identical && row.st.bit_identity;
            all_shards_ok = all_shards_ok && row.shard_sum_ok;
            if (!row.raw) encoded_best = std::max(encoded_best, row.st.qps);
        }
        const double encoded_vs_inprocess =
            baseline_value > 0.0 ? encoded_best / baseline_value : 0.0;

        if (!open_json()) return 1;
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"serve\",\n");
        std::fprintf(f, "  \"schema_version\": 5,\n");
        std::fprintf(f,
                     "  \"workload\": {\"dim\": %zu, \"classes\": %zu, "
                     "\"connections\": %zu, \"requests_per_connection\": %zu, "
                     "\"pipeline\": %zu, \"kind\": \"sweep\", "
                     "\"dynamic\": false},\n",
                     work.dim,
                     static_cast<std::size_t>(work.train.num_classes()),
                     connections, per_conn, pipeline);
        write_backend_json(f);
        std::fprintf(f, "  \"results\": null,\n");
        std::fprintf(f, "  \"wire\": {\"mode\": \"sweep\", \"scaling\": [\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const sweep_row& row = rows[i];
            std::fprintf(f,
                         "    {\"reactors\": %zu, \"kind\": \"%s\", "
                         "\"throughput_qps\": %.1f, "
                         "\"p50_us\": %.2f, \"p99_us\": %.2f, "
                         "\"bit_identity\": %s, \"shard_sum_ok\": %s, "
                         "\"raw_queries\": %llu, \"encode_kernel_calls\": %llu, "
                         "\"reactor_cpu\": [",
                         row.reactors, row.raw ? "raw" : "encoded", row.st.qps,
                         row.st.p50, row.st.p99,
                         row.st.bit_identity ? "true" : "false",
                         row.shard_sum_ok ? "true" : "false",
                         static_cast<unsigned long long>(row.raw_queries),
                         static_cast<unsigned long long>(
                             row.encode_kernel_calls));
            for (std::size_t rc = 0; rc < row.reactor_cpu.size(); ++rc) {
                std::fprintf(f, "%.3f%s", row.reactor_cpu[rc],
                             rc + 1 < row.reactor_cpu.size() ? ", " : "");
            }
            std::fprintf(f, "]}%s\n", i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f,
                     "    \"encoded_vs_inprocess\": %s},\n",
                     baseline_value > 0.0
                         ? (std::to_string(encoded_vs_inprocess).c_str())
                         : "null");
        std::fprintf(f,
                     "  \"gates\": {\"bit_identity\": %s, "
                     "\"throughput_positive\": %s, \"shard_sum_ok\": %s, "
                     "\"encoded_ge_inprocess\": %s}\n",
                     all_identical ? "true" : "false",
                     rows.empty() || rows[0].st.qps > 0.0 ? "true" : "false",
                     all_shards_ok ? "true" : "false",
                     (!have_baseline || encoded_vs_inprocess >= 1.0) ? "true"
                                                                     : "false");
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("# wrote %s\n", json_path.c_str());

        // Hard exit gates, sweep flavor: every row bit-identical and the
        // shard sums exact. The scaling ratios are telemetry (see header).
        if (!all_identical || !all_shards_ok) {
            std::fprintf(stderr, "FAIL: sweep rows diverged from the oracle "
                                 "or shard sums broke\n");
            return 1;
        }
        return 0;
    }

    // ---- wire mode: drive an external uhd_serve --------------------------
    if (port_knob == 0) {
        // Wait briefly for the server's readiness file (ephemeral ports).
        for (int attempt = 0; attempt < 200 && port_knob == 0; ++attempt) {
            std::ifstream in(port_file);
            if (in >> port_knob && port_knob != 0) break;
            port_knob = 0;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        if (port_knob == 0) {
            std::fprintf(stderr, "no UHD_LOADGEN_PORT and no port file %s\n",
                         port_file.c_str());
            return 1;
        }
    }
    const auto port = static_cast<std::uint16_t>(port_knob);

    std::vector<std::uint32_t> expected(pool);
    if (dynamic) {
        const hdc::dynamic_query_policy policy =
            work.model.calibrate_dynamic(work.test, 0.99);
        const std::size_t words = oracle.words_per_class();
        std::vector<std::uint64_t> packed(words);
        std::vector<std::size_t> answer(1);
        for (std::size_t i = 0; i < pool; ++i) {
            kernels::sign_binarize(work.queries.data() + i * work.dim,
                                   work.dim, packed.data());
            policy.answer_block(oracle, packed, 1, answer);
            expected[i] = static_cast<std::uint32_t>(answer[0]);
        }
    } else {
        expected = expected_full_scan(work, oracle);
    }

    // Pre-serialize one request frame per pool entry (request_id is
    // patched per send): the measurement loop does no encoding work.
    const net::opcode op =
        dynamic ? net::opcode::predict_dynamic : net::opcode::predict;
    const std::vector<std::vector<std::uint8_t>> frames =
        make_frames(work, op, raw_kind);

    std::printf("# uhd_loadgen: %s:%u, %zu conns x %zu reqs, pipeline %zu, "
                "kind=%s dynamic=%d dim=%zu\n",
                host.c_str(), port, connections, per_conn, pipeline,
                kind_name.c_str(), dynamic ? 1 : 0, work.dim);

    drive_config cfg;
    cfg.host = host;
    cfg.port = port;
    cfg.connections = connections;
    cfg.per_conn = per_conn;
    cfg.pipeline = pipeline;
    cfg.pool = pool;
    cfg.frames = &frames;
    cfg.expected = &expected;
    cfg.op = op;
    const drive_stats st = drive(cfg);
    if (!st.error.empty()) {
        std::fprintf(stderr, "FAIL: connection: %s\n", st.error.c_str());
        return 1;
    }

    // Server-side accounting over one extra connection.
    net::stats_reply server_stats{};
    try {
        net::wire_client client(host, port);
        client.set_recv_timeout_ms(30000);
        client.ping();
        server_stats = client.stats();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "FAIL: stats/ping connection: %s\n", e.what());
        return 1;
    }

    const double ratio = baseline_value > 0.0 ? st.qps / baseline_value : 0.0;

    std::printf("# %.0f wire qps, p50 %.1f us, p99 %.1f us, %zu mismatches, "
                "%zu version splits; server: %llu frames in, %llu throttles, "
                "%llu reactors, block utilization %.2f, encode calls %llu\n",
                st.qps, st.p50, st.p99, st.mismatches, st.version_mismatches,
                static_cast<unsigned long long>(server_stats.frames_in),
                static_cast<unsigned long long>(server_stats.throttle_events),
                static_cast<unsigned long long>(server_stats.reactors),
                server_stats.kernel_calls == 0
                    ? 0.0
                    : static_cast<double>(server_stats.queries) /
                          static_cast<double>(server_stats.kernel_calls),
                static_cast<unsigned long long>(
                    server_stats.encode_kernel_calls));
    if (have_baseline) {
        std::printf("# in-process baseline %.0f qps -> wire/in-process %.2f\n",
                    baseline_value, ratio);
    }

    if (!open_json()) return 1;
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"serve\",\n");
    std::fprintf(f, "  \"schema_version\": 5,\n");
    std::fprintf(f,
                 "  \"workload\": {\"dim\": %zu, \"classes\": %zu, "
                 "\"connections\": %zu, \"requests_per_connection\": %zu, "
                 "\"pipeline\": %zu, \"kind\": \"%s\", \"dynamic\": %s},\n",
                 work.dim, static_cast<std::size_t>(work.train.num_classes()),
                 connections, per_conn, pipeline, kind_name.c_str(),
                 dynamic ? "true" : "false");
    write_backend_json(f);
    std::fprintf(f, "  \"results\": null,\n");
    std::fprintf(f,
                 "  \"wire\": {\"mode\": \"wire\", \"throughput_qps\": %.1f, "
                 "\"p50_us\": %.2f, \"p99_us\": %.2f, \"requests\": %zu, "
                 "\"seconds\": %.4f,\n",
                 st.qps, st.p50, st.p99, st.total, st.wall_s);
    std::fprintf(
        f,
        "    \"frames_in\": %llu, \"frames_out\": %llu, \"bytes_in\": %llu, "
        "\"bytes_out\": %llu, \"throttle_events\": %llu, \"reactors\": %llu,\n",
        static_cast<unsigned long long>(server_stats.frames_in),
        static_cast<unsigned long long>(server_stats.frames_out),
        static_cast<unsigned long long>(server_stats.bytes_in),
        static_cast<unsigned long long>(server_stats.bytes_out),
        static_cast<unsigned long long>(server_stats.throttle_events),
        static_cast<unsigned long long>(server_stats.reactors));
    std::fprintf(
        f,
        "    \"raw_queries\": %llu, \"encode_kernel_calls\": %llu,\n",
        static_cast<unsigned long long>(server_stats.raw_queries),
        static_cast<unsigned long long>(server_stats.encode_kernel_calls));
    std::fprintf(
        f,
        "    \"server_block_utilization\": %.2f, \"bit_identity\": %s, "
        "\"scaling\": null,\n",
        server_stats.kernel_calls == 0
            ? 0.0
            : static_cast<double>(server_stats.queries) /
                  static_cast<double>(server_stats.kernel_calls),
        st.bit_identity ? "true" : "false");
    if (have_baseline) {
        std::fprintf(f,
                     "    \"inprocess_qps\": %.1f, "
                     "\"wire_vs_inprocess\": %.3f},\n",
                     baseline_value, ratio);
    } else {
        std::fprintf(f, "    \"inprocess_qps\": null, "
                        "\"wire_vs_inprocess\": null},\n");
    }
    std::fprintf(f,
                 "  \"gates\": {\"bit_identity\": %s, "
                 "\"throughput_positive\": %s, \"p99_ge_p50\": %s, "
                 "\"wire_ge_half_inprocess\": %s}\n",
                 st.bit_identity ? "true" : "false",
                 st.qps > 0.0 ? "true" : "false",
                 st.p99 >= st.p50 ? "true" : "false",
                 (!have_baseline || ratio >= 0.5) ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("# wrote %s\n", json_path.c_str());

    // Hard exit gates: every answer bit-identical to the oracle, and the
    // wire actually moved traffic. The >= 50%-of-in-process acceptance is
    // recorded (gates.wire_ge_half_inprocess) rather than exiting nonzero:
    // perf ratios on shared CI boxes are telemetry, correctness is law.
    if (!st.bit_identity) {
        std::fprintf(stderr,
                     "FAIL: wire answers diverged from the in-process oracle "
                     "(%zu label, %zu version, %zu/%zu samples)\n",
                     st.mismatches, st.version_mismatches, st.samples,
                     st.total);
        return 1;
    }
    if (st.qps <= 0.0 || st.p50 <= 0.0) {
        std::fprintf(stderr, "FAIL: implausible wire measurements (qps=%.1f, "
                             "p50=%.2f)\n",
                     st.qps, st.p50);
        return 1;
    }
    return 0;
}

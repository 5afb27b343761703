// Serving-engine benchmark: throughput and tail latency of the
// micro-batching inference engine under a mixed query/online-update load —
// concurrent client threads submitting pre-encoded queries while a trainer
// thread streams partial_fit updates and publishes fresh snapshots.
//
//   ./bench_serve                                  # default workload
//   UHD_BENCH_SERVE_CLIENTS=8 ./bench_serve        # more load generators
//
// Emits BENCH_serve.json (schema in bench/README.md). The run fails
// (nonzero exit) when the serving answers are not bit-identical to the
// trainer's final classifier after quiescing, when throughput is not
// positive, or when the latency percentiles are inconsistent (p99 < p50) —
// so CI's bench smoke doubles as a correctness gate for the serve layer.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "uhd/common/config.hpp"
#include "uhd/common/cpu_features.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/core/model.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/serve/inference_engine.hpp"

namespace {

using namespace uhd;

/// Same backend attribution block as the other BENCH_*.json files.
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

/// Percentile over an ascending-sorted latency vector (rounded
/// linear-interpolation rank: index round(p * (n - 1))).
double percentile_us(const std::vector<double>& sorted_us, double p) {
    if (sorted_us.empty()) return 0.0;
    const double rank = p * static_cast<double>(sorted_us.size() - 1);
    return sorted_us[static_cast<std::size_t>(rank + 0.5)];
}

/// Positive workload knob: env override clamped to at least 1 (zero would
/// be a modulo-by-zero or an empty measurement; negative values already
/// throw in env_int, the repo-wide convention).
std::size_t env_count(const char* name, std::int64_t fallback) {
    const std::int64_t value = env_int(name, fallback);
    return static_cast<std::size_t>(value < 1 ? 1 : value);
}

} // namespace

int main() {
    const std::size_t dim = env_count("UHD_BENCH_SERVE_DIM", 1024);
    const std::size_t clients = env_count("UHD_BENCH_SERVE_CLIENTS", 4);
    const std::size_t per_client = env_count("UHD_BENCH_SERVE_QUERIES", 2000);
    const std::size_t workers = env_count("UHD_BENCH_SERVE_WORKERS", 2);
    const std::size_t max_batch = env_count("UHD_BENCH_SERVE_BATCH", 32);
    const std::size_t updates = env_count("UHD_BENCH_SERVE_UPDATES", 512);
    const std::size_t publish_every =
        env_count("UHD_BENCH_SERVE_PUBLISH_EVERY", 16);
    const std::string json_path =
        env_string("UHD_BENCH_SERVE_JSON", "BENCH_serve.json");

    std::printf("# serve bench: backend=%s D=%zu clients=%zu x %zu queries, "
                "%zu workers, max_batch=%zu, %zu online updates\n",
                kernels::active().name, dim, clients, per_client, workers,
                max_batch, updates);

    // Model + workload: synthetic digits, binarized serving (the packed
    // associative-memory path the serve layer targets).
    const data::dataset train = data::make_synthetic_digits(1000, 42);
    const data::dataset stream = data::make_synthetic_digits(updates, 43);
    const data::dataset test = data::make_synthetic_digits(256, 44);
    core::uhd_config cfg;
    cfg.dim = dim;
    core::uhd_model model(cfg, train.shape(), train.num_classes(),
                          hdc::train_mode::raw_sums, hdc::query_mode::binarized);
    model.fit_parallel(train, &thread_pool::shared());

    // Pre-encode the query pool: this measures the serving stage, the
    // encode stage has its own bench (BENCH_encode.json).
    const std::vector<std::int32_t> pool =
        bench::encode_queries(model.encoder(), test, test.size());
    const auto query = [&](std::size_t i) {
        return std::span<const std::int32_t>(
            pool.data() + (i % test.size()) * dim, dim);
    };

    serve::engine_options options;
    options.workers = workers;
    options.max_batch = max_batch;
    serve::inference_engine engine(model.snapshot(), options);

    // Mixed load: clients hammer the engine while the trainer streams
    // online updates into its private model and publishes snapshots.
    std::vector<std::vector<double>> latencies_us(clients);
    std::vector<std::thread> client_threads;
    client_threads.reserve(clients);
    const auto wall_start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < clients; ++c) {
        client_threads.emplace_back([&, c] {
            auto& lat = latencies_us[c];
            lat.reserve(per_client);
            for (std::size_t q = 0; q < per_client; ++q) {
                const auto t0 = std::chrono::steady_clock::now();
                const std::size_t answer = engine.predict(query(c * 7919 + q));
                const auto t1 = std::chrono::steady_clock::now();
                if (answer >= train.num_classes()) std::abort(); // impossible
                lat.push_back(std::chrono::duration<double, std::micro>(t1 - t0)
                                  .count());
            }
        });
    }
    std::thread trainer([&] {
        for (std::size_t i = 0; i < stream.size(); ++i) {
            model.partial_fit(stream.image(i), stream.label(i));
            if ((i + 1) % publish_every == 0) engine.publish(model.snapshot());
        }
        engine.publish(model.snapshot());
    });
    for (auto& t : client_threads) t.join();
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    trainer.join();

    // Counters first: the batch accounting must describe the mixed load
    // the throughput/latency numbers describe, not the sequential
    // verification pass below.
    const serve::serve_stats stats = engine.stats();

    // Quiesced correctness gate: the engine now serves the trainer's final
    // snapshot and must answer bit-identically to the model.
    std::size_t mismatches = 0;
    const hdc::inference_snapshot final_snapshot = model.snapshot();
    for (std::size_t i = 0; i < test.size(); ++i) {
        if (engine.predict(query(i)) != final_snapshot.predict_encoded(query(i))) {
            ++mismatches;
        }
    }
    engine.stop();

    std::vector<double> merged;
    for (const auto& lat : latencies_us) {
        merged.insert(merged.end(), lat.begin(), lat.end());
    }
    std::sort(merged.begin(), merged.end());
    const double p50 = percentile_us(merged, 0.50);
    const double p99 = percentile_us(merged, 0.99);
    const std::size_t total_queries = clients * per_client;
    const double throughput = wall_s > 0.0
                                  ? static_cast<double>(total_queries) / wall_s
                                  : 0.0;
    const double avg_batch =
        stats.batches == 0 ? 0.0
                           : static_cast<double>(stats.queries) /
                                 static_cast<double>(stats.batches);

    std::printf("# %.0f queries/s, p50 %.1f us, p99 %.1f us, %llu swaps, "
                "avg batch %.2f (max %llu), block utilization %.2f, "
                "%zu mismatches\n",
                throughput, p50, p99,
                static_cast<unsigned long long>(stats.snapshot_swaps), avg_batch,
                static_cast<unsigned long long>(stats.max_batch_observed),
                stats.block_utilization(), mismatches);
    // False-sharing note: each serve_counters field sits on its own cache
    // line; before the alignas(64) padding the packed 40-byte layout
    // measured ~10% lower best-of-7 qps on this workload (numbers in
    // serve_stats.hpp, next to the layout).
    std::printf("# serve_counters cache-line padded: sizeof=%zu bytes "
                "(packed layout would be %zu)\n",
                sizeof(serve::serve_counters), 5 * sizeof(std::uint64_t));

    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"serve\",\n");
    std::fprintf(f, "  \"schema_version\": 5,\n");
    std::fprintf(f,
                 "  \"workload\": {\"dim\": %zu, \"classes\": %zu, "
                 "\"clients\": %zu, \"queries_per_client\": %zu, "
                 "\"workers\": %zu, \"max_batch\": %zu, \"updates\": %zu, "
                 "\"publish_every\": %zu},\n",
                 dim, static_cast<std::size_t>(train.num_classes()), clients,
                 per_client, workers, max_batch, updates, publish_every);
    write_backend_json(f);
    std::fprintf(f,
                 "  \"results\": {\"throughput_qps\": %.1f, \"p50_us\": %.2f, "
                 "\"p99_us\": %.2f, \"queries\": %zu, \"seconds\": %.4f,\n",
                 throughput, p50, p99, total_queries, wall_s);
    std::fprintf(f,
                 "    \"snapshot_swaps\": %llu, \"batches\": %llu, "
                 "\"avg_batch\": %.2f, \"max_batch_observed\": %llu,\n",
                 static_cast<unsigned long long>(stats.snapshot_swaps),
                 static_cast<unsigned long long>(stats.batches), avg_batch,
                 static_cast<unsigned long long>(stats.max_batch_observed));
    // Schema v2: block-drain accounting. kernel_calls counts distance-engine
    // drain calls (1 per micro-batch on the block path); utilization =
    // queries / kernel_calls is the average number of requests each
    // query-GEMM kernel call answered.
    std::fprintf(f,
                 "    \"kernel_calls\": %llu, \"block_utilization\": %.2f,\n",
                 static_cast<unsigned long long>(stats.kernel_calls),
                 stats.block_utilization());
    std::fprintf(f, "    \"final_matches_trainer\": %s},\n",
                 mismatches == 0 ? "true" : "false");
    // Schema v3+: exactly one of "results" (in-process run, this binary) and
    // "wire" (loopback/sweep run, tools/uhd_loadgen) is non-null; the other
    // is null so consumers can tell the serve benches apart by shape. v4
    // added wire.mode / wire.scaling (reactor sweep) and the reactor +
    // encode-stage counters to the loadgen emission; v5 dropped the sweep's
    // inline-encode row and its ratio and gate. This binary's shape is
    // unchanged.
    std::fprintf(f, "  \"wire\": null,\n");
    std::fprintf(f, "  \"gates\": {\"throughput_positive\": %s, "
                 "\"p99_ge_p50\": %s}\n",
                 throughput > 0.0 ? "true" : "false",
                 p99 >= p50 ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("# wrote %s\n", json_path.c_str());

    if (mismatches != 0) {
        std::fprintf(stderr,
                     "FAIL: %zu serving answers diverged from the trainer's "
                     "final snapshot\n",
                     mismatches);
        return 1;
    }
    // p99 >= p50 holds by construction here (same sorted vector, monotone
    // rank) — CI re-asserts it on the emitted JSON as a schema contract.
    // The gates with detection power: every request produced a latency
    // sample, and the measurements are positive.
    if (throughput <= 0.0 || p50 <= 0.0 || merged.size() != total_queries) {
        std::fprintf(stderr,
                     "FAIL: implausible measurements (qps=%.1f, p50=%.2f, "
                     "%zu/%zu latency samples)\n",
                     throughput, p50, merged.size(), total_queries);
        return 1;
    }
    return 0;
}

// uhd_serve: stand-alone wire server over the deterministic loadgen
// workload. Binds 127.0.0.1:UHD_SERVE_PORT (0 = ephemeral; the bound
// port goes to stdout and to the UHD_SERVE_PORT_FILE readiness file
// so scripts can wait for readiness), then serves until SIGINT/SIGTERM.
//
//   UHD_SERVE_PORT=7548 ./uhd_serve &
//   ./uhd_loadgen
//
// Raw-feature queries are encoded by the engine's workers, one batch
// encode per drained micro-batch; the reactors never encode.
//
// Knobs (see README.md): UHD_SERVE_PORT, UHD_SERVE_BACKLOG,
// UHD_SERVE_INFLIGHT, UHD_SERVE_WORKERS, UHD_SERVE_BATCH,
// UHD_SERVE_PUBLISH_EVERY, UHD_SERVE_DYNAMIC, UHD_SERVE_PORT_FILE,
// UHD_NET_REACTORS (resolved by the server),
// UHD_BENCH_SERVE_DIM (workload geometry, shared with the loadgen).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "uhd/common/config.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/net/wire_server.hpp"
#include "uhd/serve/inference_engine.hpp"
#include "workload.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

std::size_t env_count(const char* name, std::int64_t fallback) {
    const std::int64_t value = uhd::env_int(name, fallback);
    return static_cast<std::size_t>(value < 1 ? 1 : value);
}

} // namespace

int main() {
    using namespace uhd;

    uhd_loadgen::workload work = uhd_loadgen::make_workload();

    serve::engine_options engine_options;
    engine_options.workers = env_count("UHD_SERVE_WORKERS", 2);
    engine_options.max_batch = env_count("UHD_SERVE_BATCH", 32);
    engine_options.encoder = &work.model.encoder();

    // The engine is either plain (full scan only; predict_dynamic frames
    // get an `unsupported` error) or policy-configured (both opcodes
    // served, routed per request).
    const bool dynamic = env_bool("UHD_SERVE_DYNAMIC", false);
    std::optional<serve::inference_engine> engine;
    if (dynamic) {
        // Deterministic calibration on the shared test split: the loadgen
        // rebuilds the identical policy for its oracle.
        engine.emplace(work.model.snapshot(),
                       work.model.calibrate_dynamic(work.test, 0.99),
                       engine_options);
    } else {
        engine.emplace(work.model.snapshot(), engine_options);
    }

    net::wire_server_options options;
    options.port = static_cast<std::uint16_t>(env_int("UHD_SERVE_PORT", 0));
    options.backlog = static_cast<int>(env_count("UHD_SERVE_BACKLOG", 128));
    options.inflight_cap = env_count("UHD_SERVE_INFLIGHT", 128);
    options.publish_every = env_count("UHD_SERVE_PUBLISH_EVERY", 64);
    net::wire_server server(*engine, options, &work.model);
    server.start();

    std::printf("uhd_serve: backend=%s dim=%zu classes=%zu port=%u reactors=%zu "
                "workers=%zu batch=%zu inflight_cap=%zu dynamic=%d\n",
                kernels::active().name, work.dim,
                static_cast<std::size_t>(work.train.num_classes()),
                server.port(), server.reactor_count(), engine_options.workers,
                engine_options.max_batch, options.inflight_cap, dynamic ? 1 : 0);
    std::fflush(stdout);

    // Readiness file: written only after start() succeeded, so a waiting
    // script can connect as soon as the file appears. The default matches
    // uhd_loadgen's UHD_LOADGEN_PORT_FILE default, so server + loadgen
    // rendezvous with no configuration; set it empty to skip the file.
    const std::string port_file =
        env_string("UHD_SERVE_PORT_FILE", "uhd_serve.port");
    if (!port_file.empty()) {
        std::FILE* f = std::fopen(port_file.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
            return 1;
        }
        std::fprintf(f, "%u\n", server.port());
        std::fclose(f);
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (!g_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    server.stop();
    const net::wire_stats stats = server.stats();
    std::printf("uhd_serve: served %llu frames (%llu bytes in, %llu out), "
                "%llu connections, %llu malformed, %llu throttles\n",
                static_cast<unsigned long long>(stats.frames_in),
                static_cast<unsigned long long>(stats.bytes_in),
                static_cast<unsigned long long>(stats.bytes_out),
                static_cast<unsigned long long>(stats.connections_accepted),
                static_cast<unsigned long long>(stats.malformed_frames),
                static_cast<unsigned long long>(stats.throttle_events));
    return 0;
}

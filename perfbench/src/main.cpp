// perfbench: the closed-loop serving benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Hosts wire_server + inference_engine (in a child process) over a model
// built from the seed, drives it in a closed loop from one load-generator
// thread, checks every reply against the in-process oracle, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) as
// the last line of stdout, in one JSON object. See perfbench/README.md.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <csignal>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "drive.hpp"
#include "ladder.hpp"
#include "server_host.hpp"
#include "stats.hpp"
#include "uhd/common/cpu_features.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/thread_pool.hpp"
#include "workload.hpp"

extern char** environ;

namespace {

using namespace perfbench;

struct options {
    const workload_spec* spec = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

bool parse_args(int argc, char** argv, options& out) {
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view key = argv[i];
        const std::string_view value = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            out.spec = find_workload(value);
        } else if (key == "--seed") {
            out.seed = std::strtoull(argv[i + 1], &end, 10);
            have_seed = end != argv[i + 1] && *end == '\0';
        } else if (key == "--seconds") {
            out.seconds = std::strtod(argv[i + 1], &end);
            have_seconds = end != argv[i + 1] && *end == '\0' && out.seconds > 0.0;
        } else if (key == "--trace") {
            have_trace = value == "0" || value == "1";
            out.trace = value == "1";
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && out.spec != nullptr && have_seed && have_seconds &&
           have_trace;
}

/// No environment variable may change a workload: drop every UHD_* knob
/// (threads, reactors, affinity, backend) before the library reads one.
void scrub_environment() {
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string_view entry = *e;
        if (entry.starts_with("UHD_")) names.emplace_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string& name : names) {
        std::printf("# ignoring environment variable %s\n", name.c_str());
        ::unsetenv(name.c_str());
    }
}

/// Attribution, and the refusal to measure a build that is not optimized
/// or still checks asserts.
bool build_guard() {
#ifdef NDEBUG
    constexpr bool asserts = false;
#else
    constexpr bool asserts = true;
#endif
#ifdef __OPTIMIZE__
    constexpr bool optimized = true;
#else
    constexpr bool optimized = false;
#endif
    const std::string_view type = PERFBENCH_BUILD_TYPE;
    std::printf("# build: type %s, compiler %s, asserts %s; backend %s; cpu %s\n",
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, asserts ? "on" : "off",
                uhd::kernels::active().name, uhd::cpu().to_string().c_str());
    if (asserts || !optimized || (type != "Release" && type != "RelWithDebInfo")) {
        std::fprintf(stderr, "perfbench: refusing to measure a %s build (optimized: %s, "
                             "asserts: %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE, optimized ? "yes" : "no", asserts ? "on" : "off");
        return false;
    }
    return true;
}

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string number(double v) {
    if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300; // every request failed
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<metric>& metrics) {
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
                number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// The timed drive is cut into segments of about this length. Throughput,
/// median latency and CPU per request are medians over the segments, so a
/// host stall or a noisy neighbour that hits a few seconds of the run
/// does not move them.
constexpr double segment_s = 1.0;

/// The timed drive's figures.
struct drive_figures {
    double qps = 0.0;            ///< median over segments; printed, not
                                 ///< gated (host pauses stretch it)
    double p50_us = 0.0;         ///< median over segments of their p50
    double cpu_us_per_req = 0.0; ///< median over segments
    double p99_us = 0.0;         ///< whole drive, diagnostic only
    std::size_t samples = 0;     ///< predict latencies in the whole drive
    std::vector<double> fit_us;  ///< partial_fit latencies in the drive
    std::uint64_t answered = 0;
    std::int64_t loadgen_cpu_ns = 0;
    server_sample server;        ///< server work over the whole drive
};

drive_figures timed_drive(load_generator& gen, server_host& host, double seconds) {
    const auto segments = static_cast<std::int64_t>(std::max(1.0, std::round(seconds / segment_s)));
    const auto length = static_cast<std::int64_t>(seconds * 1e9) / segments;
    drive_figures f;
    std::vector<double> qps, p50, cpu, latencies;
    latencies.reserve(expected_requests);
    const server_sample first = host.sample();
    server_sample previous = first;
    gen.begin_phase();
    const std::int64_t start = now_ns();
    for (std::int64_t s = 1; s <= segments; ++s) {
        gen.run_until(start + s * length);
        phase_result seg = gen.end_phase();
        const server_sample current = host.sample();
        const server_sample work = current - previous;
        previous = current;
        qps.push_back(ratio(static_cast<double>(seg.answered - seg.failed),
                            static_cast<double>(seg.wall_ns) * 1e-9));
        cpu.push_back(ratio(static_cast<double>(work.cpu_ns) * 1e-3,
                            static_cast<double>(seg.answered)));
        std::sort(seg.predict_us.begin(), seg.predict_us.end());
        p50.push_back(percentile(seg.predict_us, 0.5));
        latencies.insert(latencies.end(), seg.predict_us.begin(), seg.predict_us.end());
        f.fit_us.insert(f.fit_us.end(), seg.fit_us.begin(), seg.fit_us.end());
        f.answered += seg.answered;
        f.loadgen_cpu_ns += seg.loadgen_cpu_ns;
    }
    f.qps = median(qps);
    f.p50_us = median(p50);
    f.cpu_us_per_req = median(cpu);
    std::sort(latencies.begin(), latencies.end());
    f.samples = latencies.size();
    f.p99_us = percentile(latencies, 0.99);
    f.server = previous - first;
    return f;
}

void print_drive(const char* label, const drive_figures& f) {
    std::printf("# %s: %.0f req/s, p50 %.1f us, server cpu %.2f us/req (medians of %.0f s "
                "segments); ",
                label, f.qps, f.p50_us, f.cpu_us_per_req, segment_s);
    if (supports(f.samples, 0.99)) {
        std::printf("p99 %.1f us (n=%zu, not gated)\n", f.p99_us, f.samples);
    } else {
        std::printf("p99 not supported by %zu samples\n", f.samples);
    }
}

int run(const options& opt) {
    const workload_spec& spec = *opt.spec;
    std::printf("# perfbench: workload %.*s, seed %llu, %.3g s, trace %d\n",
                static_cast<int>(spec.name.size()), spec.name.data(),
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);

    // The server process forks before the load generator builds anything,
    // so its memory and CPU are its own.
    const server_inputs server_in = make_server_inputs(spec, opt.seed);
    server_host host(spec, server_in);
    const setup_report& setup = host.setup();
    std::printf("# setup: median of %zu: %.4f s (encoder %.4f s, fit %.4f s, start %.4f s)\n",
                setup_repeats, setup.setup_s, setup.phases.encoder_build_s,
                setup.phases.fit_s, setup.phases.start_s);

    uhd::thread_pool pool(2);
    const client_inputs client = make_client_inputs(spec, opt.seed);
    const oracle truth(spec, server_in, client, pool);
    const frame_set frames = make_frames(spec, client, truth);
    std::vector<std::uint32_t> true_labels(client.pool.size());
    for (std::size_t i = 0; i < true_labels.size(); ++i) {
        true_labels[i] = static_cast<std::uint32_t>(client.pool.label(i));
    }
    const oracle_checker checker(truth);
    load_generator gen(setup.port, frames, client.order, std::move(true_labels), checker,
                       spec.fit_every);

    // Warm up (caches, lazy set-up), then the timed closed loop. With
    // --trace 1 the drive is halved: untraced, then with a span per request.
    const double warmup_s = std::max(0.5, 0.1 * opt.seconds);
    gen.run_until(now_ns() + static_cast<std::int64_t>(warmup_s * 1e9));
    const double drive_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    const drive_figures untraced = timed_drive(gen, host, drive_s);
    print_drive("drive", untraced);

    trace_log trace;
    if (opt.trace) {
        gen.set_trace(&trace);
        const drive_figures traced = timed_drive(gen, host, drive_s);
        gen.set_trace(nullptr);
        print_drive("traced drive", traced);
        std::printf("# tracing overhead: qps %+.2f%%, p50 %+.2f%%\n",
                    100.0 * (ratio(traced.qps, untraced.qps) - 1.0),
                    100.0 * (ratio(traced.p50_us, untraced.p50_us) - 1.0));
    }
    gen.drain();

    // The rest of the fit stream, then a quiesced pass over the whole pool.
    std::vector<double> fit_us = untraced.fit_us;
    const std::uint64_t serving_version = truth.serving_version();
    if (spec.fit_every != 0) gen.send_remaining_fits(window);
    gen.begin_phase();
    gen.accuracy_pass(serving_version);
    const phase_result pass = gen.end_phase();
    const double accuracy = ratio(static_cast<double>(pass.true_labels),
                                  static_cast<double>(client.pool.size()));

    std::optional<ladder_result> ladder;
    if (opt.trace && !gen.broken()) {
        ladder = run_ladder(spec, server_in, client, truth, setup.port, serving_version,
                            opt.seconds / 2, trace);
    }
    if (spec.fit_every == 0) {
        // The partial_fit probe: after the last predict, the whole fit
        // stream in a closed loop, so neither side idles between fits.
        gen.begin_phase();
        gen.send_remaining_fits(window);
        fit_us = gen.end_phase().fit_us;
    }
    std::sort(fit_us.begin(), fit_us.end());
    const double fit_p50_us = percentile(fit_us, 0.5);
    const double peak_rss_mib = host.finish();

    const std::uint64_t attempted = gen.sent() + (ladder ? ladder->attempted : 0);
    const std::uint64_t failed = gen.failed() + (ladder ? ladder->failed : 0);
    const bool correct = failed == 0 && !gen.broken() && gen.answered() == gen.sent();
    std::printf("# requests: sent %llu, answered %llu, failed %llu\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(gen.answered() +
                                                (ladder ? ladder->attempted : 0)),
                static_cast<unsigned long long>(failed));
    std::printf("# partial_fit: p50 %.1f us (n=%zu), fits sent %zu; accuracy %.4f over %zu\n",
                fit_p50_us, fit_us.size(), gen.fits_sent(), accuracy, client.pool.size());

    if (!opt.trace) {
        print_result(correct, attempted, failed,
                     {{"setup_s", setup.setup_s, "s"},
                      {"peak_rss_mib", peak_rss_mib, "MiB"},
                      {"p50_us", untraced.p50_us, "us"},
                      {"cpu_us_per_req", untraced.cpu_us_per_req, "us"},
                      {"fit_p50_us", fit_p50_us, "us"},
                      {"accuracy", accuracy, "fraction"}});
        return 0;
    }

    // Per-layer metrics: counters from the untraced drive, rungs from the
    // ladder.
    const ladder_result l = ladder.value_or(ladder_result{});
    const uhd::net::wire_stats& w = untraced.server.wire;
    const uhd::serve::serve_stats& e = untraced.server.engine;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double model_mib = d(truth.initial().model->memory_bytes()) / 1048576.0;
    const double snapshot_mib =
        d(truth.snapshot(serving_version)->memory_bytes()) / 1048576.0;
    std::printf("# ladder: %llu batches of %zu; one request's rungs (us/query):",
                static_cast<unsigned long long>(l.batches), max_batch);
    double total = 0.0;
    for (const rung_share& r : l.path) total += r.us;
    const rung_share* largest = nullptr;
    for (const rung_share& r : l.path) {
        std::printf(" %s %.3f (%.0f%%)", r.name.c_str(), r.us, 100.0 * ratio(r.us, total));
    }
    std::printf("\n");
    // Each workload's premise: which rung dominates one request.
    const auto share = [&](std::string_view name) {
        for (const rung_share& r : l.path) {
            if (r.name == name) return r.us;
        }
        return 0.0;
    };
    std::vector<rung_share> grouped;
    std::string premise;
    if (spec.raw) {
        premise = "core.encode";
        grouped.push_back({premise, share("core.encode")});
    } else if (spec.dynamic_every != 0) {
        premise = "hdc.search+hdc.cascade";
        grouped.push_back({premise, share("hdc.search") + share("hdc.cascade")});
    } else {
        premise = "net.self+serve.self";
        grouped.push_back({premise, share("net.self") + share("serve.self")});
    }
    for (const rung_share& r : l.path) {
        if (premise.find(r.name) == std::string::npos) grouped.push_back(r);
    }
    for (const rung_share& r : grouped) {
        if (largest == nullptr || r.us > largest->us) largest = &r;
    }
    std::printf("# premise: %s is the largest rung: %s\n", premise.c_str(),
                largest != nullptr && largest->name == premise ? "confirmed"
                                                               : "NOT confirmed");
    const std::filesystem::path trace_path =
        std::filesystem::read_symlink("/proc/self/exe").parent_path() /
        ("trace-" + std::string(spec.name) + ".jsonl");
    if (trace.write(trace_path.string())) {
        std::printf("# trace: %zu spans in %s\n", trace.spans().size(),
                    trace_path.string().c_str());
    }

    print_result(correct, attempted, failed,
                 {{"core.encode_us", l.encode_us, "us"},
                  {"common.binarize_us", l.binarize_us, "us"},
                  {"hdc.search_us", l.search_us, "us"},
                  {"hdc.cascade_us", l.cascade_us, "us"},
                  {"hdc.cascade_words", l.cascade_words, "words"},
                  {"serve.engine_us", l.engine_us, "us"},
                  {"serve.self_us", l.serve_self_us, "us"},
                  {"serve.avg_batch", ratio(d(e.queries), d(e.batches)), "req/batch"},
                  {"serve.block_utilization", e.block_utilization(), "req/call"},
                  {"serve.encode_utilization", e.encode_utilization(), "req/call"},
                  {"serve.publish_us", l.publish_us, "us"},
                  {"net.ping_us", l.ping_us, "us"},
                  {"net.self_us", l.net_self_us, "us"},
                  {"net.loop_cpu_us", ratio(d(w.loop_cpu_ns) * 1e-3, d(w.frames_in)), "us"},
                  {"net.bytes_in_per_req", ratio(d(w.bytes_in), d(w.frames_in)), "B/req"},
                  {"net.bytes_out_per_req", ratio(d(w.bytes_out), d(w.frames_out)), "B/req"},
                  {"net.throttle_events", d(w.throttle_events), "count"},
                  {"net.malformed_frames", d(w.malformed_frames), "count"},
                  {"core.partial_fit_us", l.partial_fit_us, "us"},
                  {"core.snapshot_us", l.snapshot_us, "us"},
                  {"core.encoder_build_s", setup.phases.encoder_build_s, "s"},
                  {"core.fit_s", setup.phases.fit_s, "s"},
                  {"serve.start_s", setup.phases.start_s, "s"},
                  {"core.model_mib", model_mib, "MiB"},
                  {"hdc.snapshot_mib", snapshot_mib, "MiB"},
                  {"loadgen.cpu_us_per_req",
                   ratio(static_cast<double>(untraced.loadgen_cpu_ns) * 1e-3,
                         d(untraced.answered)),
                   "us"}});
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    std::signal(SIGPIPE, SIG_IGN);
    options opt;
    if (!parse_args(argc, argv, opt)) {
        std::fprintf(stderr, "usage: perfbench --workload <");
        for (const workload_spec& s : workloads()) {
            std::fprintf(stderr, "%.*s%s", static_cast<int>(s.name.size()), s.name.data(),
                         &s == &workloads().back() ? "" : "|");
        }
        std::fprintf(stderr, "> --seed <n> --seconds <s> --trace <0|1>\n");
        return 2;
    }
    scrub_environment();
    if (!build_guard()) return 3;
    try {
        return run(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}

// Tests of the benchmark's own logic: percentile selection and sample
// counts, server-CPU accounting that excludes the load generator, and
// failure accounting when the oracle is deliberately wrong.
//
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "drive.hpp"
#include "server_host.hpp"
#include "stats.hpp"
#include "uhd/common/thread_pool.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

int failures = 0;

#define CHECK(cond)                                                              \
    do {                                                                         \
        if (!(cond)) {                                                           \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                         #cond);                                                 \
            ++failures;                                                          \
        }                                                                        \
    } while (0)

void test_percentiles() {
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i) hundred.push_back(i);
    CHECK(percentile(hundred, 0.50) == 50.0);
    CHECK(percentile(hundred, 0.99) == 99.0);
    CHECK(percentile(hundred, 1.00) == 100.0);
    CHECK(percentile(hundred, 0.001) == 1.0);
    const std::vector<double> four = {1, 2, 3, 4};
    CHECK(percentile(four, 0.5) == 2.0); // nearest rank, no interpolation
    CHECK(percentile(four, 0.51) == 3.0);
    CHECK(percentile(std::vector<double>{7.0}, 0.99) == 7.0);
    CHECK(percentile(std::vector<double>{}, 0.5) == 0.0);
    CHECK(median({5, 1, 4, 2, 3}) == 3.0);

    // A failed request is a missed latency: it sorts last and drags the
    // percentile up once failures pass the rank.
    const std::vector<double> half_failed = {1, 2, missed, missed};
    CHECK(percentile(half_failed, 0.5) == 2.0);
    CHECK(std::isinf(percentile(half_failed, 0.75)));
    CHECK(std::isinf(median({1, missed, missed})));

    // Reportable percentiles need ten samples beyond them.
    CHECK(supports(1000, 0.99));
    CHECK(!supports(999, 0.99));
    CHECK(supports(20, 0.5));
    CHECK(!supports(19, 0.5));
    CHECK(!supports(0, 0.5));
}

/// A small pre-encoded workload: quick to set up setup_repeats times.
constexpr workload_spec tiny{"tiny", 256, 10, false, 0, 0, 500, 64, 65};

/// The oracle with some labels deliberately wrong.
class corrupted_checker final : public reply_checker {
public:
    corrupted_checker(const oracle& o, std::size_t every) : oracle_(o), every_(every) {}
    [[nodiscard]] std::optional<std::uint32_t> label(std::size_t i,
                                                     std::uint64_t version) const override {
        const auto l = oracle_.label(i, version);
        if (l.has_value() && i % every_ == 0) return *l + 1;
        return l;
    }
    [[nodiscard]] uhd::net::partial_fit_reply fit_reply(std::size_t k) const override {
        return oracle_.fit_reply(k);
    }

private:
    const oracle& oracle_;
    std::size_t every_;
};

void burn_cpu_ms(double ms) {
    const std::int64_t until = thread_cpu_ns() + static_cast<std::int64_t>(ms * 1e6);
    volatile std::uint64_t x = 0;
    while (thread_cpu_ns() < until) {
        for (int i = 0; i < 1000; ++i) x = x + static_cast<std::uint64_t>(i);
    }
}

void test_server_process() {
    const server_inputs inputs = make_server_inputs(tiny, 7);
    server_host host(tiny, inputs); // forks before any thread exists
    CHECK(host.setup().setup_s > 0.0);
    CHECK(host.setup().port != 0);

    uhd::thread_pool pool(2);
    const client_inputs client = make_client_inputs(tiny, 7);
    const oracle truth(tiny, inputs, client, pool);
    const frame_set frames = make_frames(tiny, client, truth);
    std::vector<std::uint32_t> labels(client.pool.size());
    for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = static_cast<std::uint32_t>(client.pool.label(i));
    }

    // Server CPU excludes the load generator: the parent burns 300 ms of
    // CPU while the idle server should account for almost none.
    const server_sample before_burn = host.sample();
    const std::int64_t burn0 = thread_cpu_ns();
    burn_cpu_ms(300);
    const std::int64_t burned = thread_cpu_ns() - burn0;
    const server_sample idle = host.sample() - before_burn;
    CHECK(burned >= 300'000'000);
    CHECK(idle.cpu_ns < 30'000'000);

    // ... and it does count the server's own work.
    const oracle_checker good(truth);
    load_generator gen(host.setup().port, frames, client.order, labels, good, 0);
    const server_sample before_work = host.sample();
    gen.begin_phase();
    gen.run_until(now_ns() + 200'000'000);
    gen.drain();
    const phase_result busy = gen.end_phase();
    const server_sample work = host.sample() - before_work;
    CHECK(busy.answered > 1000);
    CHECK(busy.failed == 0);
    CHECK(work.cpu_ns > 0);
    CHECK(work.engine.queries == busy.answered);
    CHECK(work.wire.frames_in == busy.answered);

    // A wrong oracle label is a failed request, not a crash or a pass: one
    // pass over the pool with every 7th label corrupted.
    const corrupted_checker wrong(truth, 7);
    load_generator bad(host.setup().port, frames, client.order, labels, wrong, 0);
    bad.begin_phase();
    bad.accuracy_pass(truth.initial_version());
    const phase_result pass = bad.end_phase();
    const std::size_t corrupted = (client.pool.size() + 6) / 7;
    CHECK(!bad.broken());
    CHECK(bad.sent() == client.pool.size());
    CHECK(bad.answered() == client.pool.size());
    CHECK(bad.failed() == corrupted);
    CHECK(pass.failed == corrupted);
    std::size_t missed_latencies = 0;
    for (const double us : pass.predict_us) missed_latencies += std::isinf(us) ? 1 : 0;
    CHECK(missed_latencies == corrupted);

    // Fit replies are checked the same way.
    load_generator fits(host.setup().port, frames, client.order, labels, good, 0);
    fits.send_remaining_fits(4);
    CHECK(fits.failed() == 0);
    CHECK(fits.fits_sent() == client.fit_stream.size());

    CHECK(host.finish() > 1.0); // peak RSS in MiB
}

} // namespace

int main() {
    test_server_process(); // first: it forks, which needs a thread-free process
    test_percentiles();
    if (failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
}

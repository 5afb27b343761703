// Shared helpers for the table/figure bench harnesses.
//
// Benches run argument-less; workload sizes scale through UHD_* environment
// variables so the full paper-scale sweep is one command away:
//   UHD_TRAIN_N=60000 UHD_TEST_N=10000 UHD_ITERS=100 ./bench_table4_mnist
#ifndef UHD_BENCH_COMMON_HPP
#define UHD_BENCH_COMMON_HPP

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "uhd/common/config.hpp"
#include "uhd/common/stopwatch.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/idx.hpp"
#include "uhd/data/synthetic.hpp"

namespace uhd::bench {

struct workload {
    std::size_t train_n;
    std::size_t test_n;
    std::size_t iters;
};

inline workload load_workload(std::size_t default_train = 1000,
                              std::size_t default_test = 300,
                              std::size_t default_iters = 5) {
    workload w{};
    w.train_n = static_cast<std::size_t>(env_int("UHD_TRAIN_N",
                                                 static_cast<std::int64_t>(default_train)));
    w.test_n = static_cast<std::size_t>(env_int("UHD_TEST_N",
                                                static_cast<std::int64_t>(default_test)));
    w.iters = static_cast<std::size_t>(env_int("UHD_ITERS",
                                               static_cast<std::int64_t>(default_iters)));
    return w;
}

/// MNIST train/test pair: real IDX files when available, synthetic analogue
/// otherwise. Returns (train, test, used_real).
inline std::pair<data::dataset, data::dataset> mnist_pair(std::size_t train_n,
                                                          std::size_t test_n,
                                                          bool* used_real = nullptr) {
    const std::string dir = env_string("UHD_MNIST_DIR", "data/mnist");
    if (auto real = data::try_load_mnist(dir)) {
        if (used_real != nullptr) *used_real = true;
        std::printf("# using real MNIST from %s\n", dir.c_str());
        return std::move(*real);
    }
    if (used_real != nullptr) *used_real = false;
    return {data::make_synthetic_digits(train_n, 42),
            data::make_synthetic_digits(test_n, 4242)};
}

// --- the one bench timer --------------------------------------------------
//
// Every timed row of the BENCH_*.json files comes from time_median: one
// warm-up call, then timing_samples timed samples, reported as their
// median and quartiles. A callable shorter than min_sample_seconds repeats
// within each sample (the repeat count is fixed from the warm-up), so a
// microsecond kernel and a multi-millisecond pass follow the same rule.

/// Timed samples per row; odd, so the median is one of them.
inline constexpr std::size_t timing_samples = 7;
static_assert(timing_samples % 2 == 1 && timing_samples >= 5);

/// Shortest sample: a faster callable runs several times per sample.
inline constexpr double min_sample_seconds = 2e-3;

/// Median and quartiles of one row's samples, in seconds per call.
struct timing {
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;

    /// The same timing per one of `units` (e.g. per image of a pass).
    [[nodiscard]] timing per(double units) const {
        return {q1 / units, median / units, q3 / units};
    }
};

/// Median and quartiles of `call()`'s wall time over timing_samples
/// samples, after one warm-up call.
template <typename Fn>
timing time_median(const Fn& call) {
    stopwatch watch;
    call();
    const double warm_up = watch.seconds();
    const std::size_t reps =
        warm_up >= min_sample_seconds
            ? 1
            : static_cast<std::size_t>(
                  std::ceil(min_sample_seconds / std::max(warm_up, 1e-9)));
    std::array<double, timing_samples> samples{};
    for (double& sample : samples) {
        watch.reset();
        for (std::size_t r = 0; r < reps; ++r) call();
        sample = watch.seconds() / static_cast<double>(reps);
    }
    std::sort(samples.begin(), samples.end());
    return {samples[timing_samples / 4], samples[timing_samples / 2],
            samples[3 * timing_samples / 4]};
}

/// keep()'s target: a volatile store the compiler must perform.
inline volatile std::size_t kept_value = 0;

/// Make `value` observable, so the work that computed it cannot be elided.
inline void keep(std::size_t value) { kept_value = value; }

// --- shared inputs ----------------------------------------------------------

/// The first `n` dataset images back to back: the batch encoders' input.
inline std::vector<std::uint8_t> flat_images(const data::dataset& ds, std::size_t n) {
    std::vector<std::uint8_t> flat;
    flat.reserve(n * ds.shape().pixels());
    for (std::size_t i = 0; i < n; ++i) {
        const auto img = ds.image(i);
        flat.insert(flat.end(), img.begin(), img.end());
    }
    return flat;
}

/// Pre-encode the first `n` dataset images into one flat buffer
/// (n * dim() accumulators, image-major).
inline std::vector<std::int32_t> encode_queries(const core::uhd_encoder& enc,
                                                const data::dataset& ds,
                                                std::size_t n) {
    std::vector<std::int32_t> out(n * enc.dim());
    enc.encode_batch(flat_images(ds, n), n, out);
    return out;
}

} // namespace uhd::bench

#endif // UHD_BENCH_COMMON_HPP

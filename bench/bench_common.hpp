// Shared helpers for the table/figure bench harnesses.
//
// Benches run argument-less; workload sizes scale through UHD_* environment
// variables so the full paper-scale sweep is one command away:
//   UHD_TRAIN_N=60000 UHD_TEST_N=10000 UHD_ITERS=100 ./bench_table4_mnist
#ifndef UHD_BENCH_COMMON_HPP
#define UHD_BENCH_COMMON_HPP

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "uhd/common/config.hpp"
#include "uhd/common/stopwatch.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/idx.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/classifier.hpp"
#include "uhd/hdc/similarity.hpp"

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

// --- shared encode-throughput measurement ---------------------------------
//
// One definition of the metric for every bench that reports encode
// throughput: effective bytes per image are the threshold-bank bytes the
// compare loop touches (pixels x dim), and the scalar baseline is always
// the pinned-scalar oracle encode_scalar().

/// Bank bytes the encode compare loop reads per image.
inline double encode_bytes_per_image(const core::uhd_encoder& enc) {
    return static_cast<double>(enc.pixels()) * static_cast<double>(enc.dim());
}

/// Seconds to encode the first `n` dataset images through the pinned
/// scalar oracle (the speedup baseline).
inline double time_encode_scalar(const core::uhd_encoder& enc,
                                 const data::dataset& ds, std::size_t n) {
    std::vector<std::int32_t> acc(enc.dim());
    stopwatch watch;
    for (std::size_t i = 0; i < n; ++i) enc.encode_scalar(ds.image(i), acc);
    return watch.seconds();
}

/// Seconds to encode the first `n` dataset images through the
/// word-parallel single-image path.
inline double time_encode_parallel(const core::uhd_encoder& enc,
                                   const data::dataset& ds, std::size_t n) {
    std::vector<std::int32_t> acc(enc.dim());
    stopwatch watch;
    for (std::size_t i = 0; i < n; ++i) enc.encode(ds.image(i), acc);
    return watch.seconds();
}

/// Seconds to encode the first `n` dataset images through encode_batch
/// (optionally pool-parallel). `out` must hold n * dim() accumulators.
inline double time_encode_batch(const core::uhd_encoder& enc, const data::dataset& ds,
                                std::size_t n, std::span<std::int32_t> out,
                                thread_pool* pool = nullptr) {
    stopwatch watch;
    if (n == ds.size()) {
        enc.encode_batch(ds, out, pool);
    } else {
        std::vector<std::uint8_t> flat;
        flat.reserve(n * ds.shape().pixels());
        for (std::size_t i = 0; i < n; ++i) {
            const auto img = ds.image(i);
            flat.insert(flat.end(), img.begin(), img.end());
        }
        watch.reset(); // exclude the staging copy from the measurement
        enc.encode_batch(flat, n, out, pool);
    }
    return watch.seconds();
}

/// Seconds to encode the first `n` dataset images into packed sign rows
/// through encode_sign_batch. `out` must hold n * sign_words(dim()) words.
inline double time_encode_sign_batch(const core::uhd_encoder& enc,
                                     const data::dataset& ds, std::size_t n,
                                     std::span<std::uint64_t> out) {
    std::vector<std::uint8_t> flat;
    flat.reserve(n * ds.shape().pixels());
    for (std::size_t i = 0; i < n; ++i) {
        const auto img = ds.image(i);
        flat.insert(flat.end(), img.begin(), img.end());
    }
    stopwatch watch; // the staging copy stays outside the measurement
    enc.encode_sign_batch(flat, n, out);
    return watch.seconds();
}

// --- shared train-throughput measurement ----------------------------------

/// Seconds for the seed-era sequential training loop over the first `n`
/// dataset images: per-image pinned-scalar-oracle encode + bundle into the
/// class accumulator, then per-class sign binarization. One definition of
/// the baseline every training speedup is measured against.
inline double time_fit_seed(const core::uhd_encoder& enc, const data::dataset& ds,
                            std::size_t n) {
    stopwatch watch;
    std::vector<hdc::accumulator> acc(ds.num_classes(), hdc::accumulator(enc.dim()));
    std::vector<std::int32_t> scratch(enc.dim());
    for (std::size_t i = 0; i < n; ++i) {
        enc.encode_scalar(ds.image(i), scratch);
        acc[ds.label(i)].add_values(scratch);
    }
    std::size_t sink = 0;
    for (const auto& a : acc) sink += a.sign().count_negative();
    if (sink == static_cast<std::size_t>(-1)) std::printf("#\n"); // keep sink live
    return watch.seconds();
}

// --- shared inference-throughput measurement ------------------------------
//
// One definition of the inference baselines for every bench that reports
// predict throughput. Queries are pre-encoded (the encode stage has its own
// benchmarks), so these time the pure inference stage: binarize + argmax.
// The scalar baselines reproduce the seed-era predict exactly: per-element
// set_bit binarization + one cosine() call per class (binarized mode), and
// a per-class double-accumulating cosine scan (integer mode).

/// Same trained state as `src` under a different query mode, without a
/// second training pass (accumulators copied through load_state).
template <typename Encoder>
hdc::hd_classifier<Encoder> clone_with_query_mode(
    const hdc::hd_classifier<Encoder>& src, hdc::query_mode qm) {
    hdc::hd_classifier<Encoder> out(src.encoder(), src.classes(), src.mode(), qm);
    std::vector<hdc::accumulator> accs;
    accs.reserve(src.classes());
    for (std::size_t c = 0; c < src.classes(); ++c) {
        accs.push_back(src.class_accumulator(c));
    }
    out.load_state(std::move(accs));
    return out;
}

/// Pre-encode the first `n` dataset images into one flat buffer
/// (n * dim() accumulators, image-major).
inline std::vector<std::int32_t> encode_queries(const core::uhd_encoder& enc,
                                                const data::dataset& ds,
                                                std::size_t n) {
    std::vector<std::int32_t> out(n * enc.dim());
    std::vector<std::uint8_t> flat;
    flat.reserve(n * ds.shape().pixels());
    for (std::size_t i = 0; i < n; ++i) {
        const auto img = ds.image(i);
        flat.insert(flat.end(), img.begin(), img.end());
    }
    enc.encode_batch(flat, n, out);
    return out;
}

/// Seed-era binarized inference over a pre-encoded query: per-element
/// set_bit + per-class cosine, strict-> first-wins argmax.
template <typename Classifier>
std::size_t seed_predict_binarized(const Classifier& clf,
                                   std::span<const std::int32_t> encoded) {
    bs::bitstream bits(encoded.size());
    for (std::size_t d = 0; d < encoded.size(); ++d) {
        if (encoded[d] < 0) bits.set_bit(d, true);
    }
    const hdc::hypervector query(std::move(bits));
    std::size_t best = 0;
    double best_similarity = -2.0;
    for (std::size_t c = 0; c < clf.classes(); ++c) {
        const double similarity = hdc::cosine(query, clf.class_hypervector(c));
        if (similarity > best_similarity) {
            best_similarity = similarity;
            best = c;
        }
    }
    return best;
}

/// Seed-era integer inference over a pre-encoded query: one
/// double-accumulating cosine() per class.
template <typename Classifier>
std::size_t seed_predict_integer(const Classifier& clf,
                                 std::span<const std::int32_t> encoded) {
    std::size_t best = 0;
    double best_similarity = -2.0;
    for (std::size_t c = 0; c < clf.classes(); ++c) {
        const double similarity =
            hdc::cosine(encoded, clf.class_accumulator(c).values());
        if (similarity > best_similarity) {
            best_similarity = similarity;
            best = c;
        }
    }
    return best;
}

/// Time `predict(query_index)` over the pre-encoded query set, repeating
/// full passes until `min_seconds` of work accumulates. Returns seconds per
/// query; `sink` accumulates predictions so the loop cannot be elided.
template <typename Fn>
double time_inference(std::size_t queries, const Fn& predict, std::size_t& sink,
                      double min_seconds = 0.05) {
    std::size_t done = 0;
    stopwatch watch;
    do {
        for (std::size_t i = 0; i < queries; ++i) sink += predict(i);
        done += queries;
    } while (watch.seconds() < min_seconds);
    return watch.seconds() / static_cast<double>(done);
}

} // namespace uhd::bench

#endif // UHD_BENCH_COMMON_HPP

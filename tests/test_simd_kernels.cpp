// Equivalence tests for the word-parallel engine: every kernel of every
// admissible backend in the uhd::kernels registry against its pinned
// scalar reference, the optimized encoder paths against the scalar oracle
// over randomized images x configurations, batch encoding against
// per-image encoding, and thread-count determinism of the batch
// classifier APIs.
//
// The whole suite runs under any UHD_BACKEND value (tests/CMakeLists.txt
// registers forced-backend variants), and the per-backend loops below
// additionally cover every admissible backend inside a single process, so
// a backend can't dodge the oracle by not being the active one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "uhd/common/cpu_features.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/rng.hpp"
#include "uhd/common/simd.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/classifier.hpp"

namespace {

using namespace uhd;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint8_t max_value,
                                       xoshiro256ss& rng) {
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) {
        b = static_cast<std::uint8_t>(rng.next() % (static_cast<unsigned>(max_value) + 1));
    }
    return out;
}

// All kernel-equivalence loops iterate over kernels::admissible_backends()
// (always at least scalar and swar), so on AVX2 hardware the AVX2 table is
// oracle-checked even when the active backend is something else.
using kernels::admissible_backends;

TEST(SimdKernels, GeqMaskSwarMatchesByteCompare) {
    xoshiro256ss rng(11);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::uint8_t q = static_cast<std::uint8_t>(rng.next() % 128);
        std::uint8_t bytes[8];
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next() % 128);
        std::uint64_t x;
        std::memcpy(&x, bytes, 8);
        const std::uint64_t mask = simd::geq_mask_swar(simd::splat8(q), x);
        for (int i = 0; i < 8; ++i) {
            const bool expected = q >= bytes[i];
            const bool got = ((mask >> (8 * i)) & 0x80u) != 0;
            EXPECT_EQ(got, expected) << "q=" << int(q) << " x=" << int(bytes[i]);
        }
    }
}

TEST(SimdKernels, BlockKernelsEveryBackendMatchesReferencePerPixelLoop) {
    xoshiro256ss rng(66);
    // max_value 255 puts bytes >= 128 on the line: outside the SWAR wide
    // path (the swar table must fall back internally), and through the
    // AVX2/AVX-512 unsigned compares of the tiles and the dimension tails.
    constexpr std::uint8_t max_values[] = {127, 15, 255};
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t dim = 1 + rng.next() % 300; // exercises 128/8 tails
        const std::size_t npix = 1 + rng.next() % 600; // crosses the 255 flush
        const std::uint8_t max_value = max_values[trial % 3];
        const auto bank = random_bytes(npix * dim, max_value, rng);
        const auto q = random_bytes(npix, max_value, rng);

        std::vector<std::int32_t> expected(dim, 3); // nonzero start: += semantics
        {
            std::vector<std::uint16_t> tile(dim, 0);
            for (std::size_t p = 0; p < npix; ++p) {
                simd::geq_accumulate_reference(q[p], bank.data() + p * dim, dim,
                                               tile.data());
            }
            simd::add_u16_to_i32(tile.data(), dim, expected.data());
        }

        std::vector<std::int32_t> scalar(dim, 3);
        simd::geq_block_accumulate_scalar(q.data(), npix, bank.data(), dim, dim,
                                          scalar.data());
        EXPECT_EQ(expected, scalar);

        if (max_value <= simd::swar_max_value) {
            std::vector<std::int32_t> swar(dim, 3);
            simd::geq_block_accumulate_swar(q.data(), npix, bank.data(), dim, dim,
                                            swar.data());
            EXPECT_EQ(expected, swar);
        }

        for (const kernels::kernel_table* backend : admissible_backends()) {
            std::vector<std::int32_t> got(dim, 3);
            backend->geq_block_accumulate(q.data(), npix, bank.data(), dim, dim,
                                          got.data(), max_value);
            EXPECT_EQ(expected, got) << "backend=" << backend->name
                                     << " max_value=" << int(max_value);
        }

        std::vector<std::int32_t> dispatched(dim, 3);
        kernels::geq_block_accumulate(q.data(), npix, bank.data(), dim, dim,
                                      dispatched.data(), max_value);
        EXPECT_EQ(expected, dispatched);
    }
}

TEST(SimdKernels, BlockKernelHonorsRowStrideOnEveryBackend) {
    // stride > dim: the kernel must only read the first `dim` bytes of
    // each row.
    xoshiro256ss rng(77);
    const std::size_t dim = 160; // one full 128-wide tile plus a tail
    const std::size_t stride = 200;
    const std::size_t npix = 40;
    const auto bank = random_bytes(npix * stride, 127, rng);
    const auto q = random_bytes(npix, 127, rng);

    std::vector<std::int32_t> expected(dim, 0);
    for (std::size_t p = 0; p < npix; ++p) {
        for (std::size_t d = 0; d < dim; ++d) {
            expected[d] += q[p] >= bank[p * stride + d] ? 1 : 0;
        }
    }
    for (const kernels::kernel_table* backend : admissible_backends()) {
        std::vector<std::int32_t> got(dim, 0);
        backend->geq_block_accumulate(q.data(), npix, bank.data(), stride, dim,
                                      got.data(), 127);
        EXPECT_EQ(expected, got) << "backend=" << backend->name;
    }
}

TEST(SimdKernels, TileFlushAddsIntoAccumulator) {
    const std::vector<std::uint16_t> tile = {0, 1, 65535, 300};
    std::vector<std::int32_t> acc = {5, -5, 1, 0};
    simd::add_u16_to_i32(tile.data(), tile.size(), acc.data());
    EXPECT_EQ(acc, (std::vector<std::int32_t>{5, -4, 65536, 300}));
}

TEST(SimdKernels, XorPopcountReductionMatchesNaive) {
    // The portable per-pair reduction the block kernels' ragged edges use.
    xoshiro256ss rng(44);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 1 + rng.next() % 9;
        std::vector<std::uint64_t> a(n);
        std::vector<std::uint64_t> b(n);
        for (auto& w : a) w = rng.next();
        for (auto& w : b) w = rng.next();
        std::uint64_t xor_pop = 0;
        for (std::size_t i = 0; i < n; ++i) {
            xor_pop += std::popcount(a[i] ^ b[i]);
        }
        EXPECT_EQ(simd::xor_popcount_words(a.data(), b.data(), n), xor_pop);
    }
}

TEST(SimdKernels, SignBinarizeEveryBackendMatchesReference) {
    xoshiro256ss rng(88);
    for (int trial = 0; trial < 200; ++trial) {
        // Dims straddle word boundaries: 1..320 covers non-multiples of 64,
        // exact multiples, and the single-word case.
        const std::size_t n = 1 + rng.next() % 320;
        std::vector<std::int32_t> values(n);
        for (auto& v : values) {
            // Mix of negative, zero, and positive (zero must map to +1 /
            // bit 0, the accumulator::sign tie rule).
            v = static_cast<std::int32_t>(rng.next() % 7) - 3;
        }
        std::vector<std::uint64_t> reference(kernels::sign_words(n), ~std::uint64_t{0});
        std::vector<std::uint64_t> swar(kernels::sign_words(n), ~std::uint64_t{0});
        simd::sign_binarize_reference(values.data(), n, reference.data());
        simd::sign_binarize_swar(values.data(), n, swar.data());
        EXPECT_EQ(reference, swar) << "n=" << n;

        for (const kernels::kernel_table* backend : admissible_backends()) {
            std::vector<std::uint64_t> got(kernels::sign_words(n), ~std::uint64_t{0});
            backend->sign_binarize(values.data(), n, got.data());
            EXPECT_EQ(reference, got) << "backend=" << backend->name << " n=" << n;

            // Tail bits beyond n must be zero (the bitstream invariant).
            if (n % 64 != 0) {
                const std::uint64_t tail_mask = ~std::uint64_t{0} << (n % 64);
                EXPECT_EQ(got.back() & tail_mask, 0u) << "backend=" << backend->name;
            }
        }

        std::vector<std::uint64_t> dispatched(kernels::sign_words(n), ~std::uint64_t{0});
        kernels::sign_binarize(values.data(), n, dispatched.data());
        EXPECT_EQ(reference, dispatched) << "n=" << n;
    }
}

TEST(SimdKernels, SignBinarizeExtremeValues) {
    const std::vector<std::int32_t> values = {INT32_MIN, INT32_MAX, 0, -1, 1,
                                              INT32_MIN + 1, INT32_MAX - 1};
    std::vector<std::uint64_t> reference(1);
    simd::sign_binarize_reference(values.data(), values.size(), reference.data());
    EXPECT_EQ(reference[0], 0b0101001u); // bits set where value < 0
    for (const kernels::kernel_table* backend : admissible_backends()) {
        std::vector<std::uint64_t> got(1);
        backend->sign_binarize(values.data(), values.size(), got.data());
        EXPECT_EQ(reference, got) << "backend=" << backend->name;
    }
}

TEST(SimdKernels, BlockedDotKernelsEveryBackendBitIdentical) {
    xoshiro256ss rng(122);
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t n = 1 + rng.next() % 500;
        std::vector<std::int32_t> a(n);
        std::vector<std::int32_t> b(n);
        for (auto& v : a) v = static_cast<std::int32_t>(rng.next() % 20001) - 10000;
        for (auto& v : b) v = static_cast<std::int32_t>(rng.next() % 20001) - 10000;
        double naive_dot = 0.0;
        double naive_sq = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            naive_dot += static_cast<double>(a[i]) * static_cast<double>(b[i]);
            naive_sq += static_cast<double>(a[i]) * static_cast<double>(a[i]);
        }
        // Lane-split accumulation reorders the rounding, so compare to the
        // naive loop with a relative tolerance...
        const double portable_dot = simd::dot_i32(a.data(), b.data(), n);
        const double portable_sq = simd::sum_squares_i32(a.data(), n);
        const double scale = std::max(1.0, std::abs(naive_dot));
        EXPECT_NEAR(portable_dot, naive_dot, 1e-9 * scale);
        EXPECT_NEAR(portable_sq, naive_sq, 1e-9 * std::max(1.0, naive_sq));
        // ...but every backend runs the identical fixed-lane algorithm, so
        // across backends the doubles must agree bit-for-bit.
        for (const kernels::kernel_table* backend : admissible_backends()) {
            EXPECT_EQ(backend->dot_i32(a.data(), b.data(), n), portable_dot)
                << "backend=" << backend->name;
            EXPECT_EQ(backend->sum_squares_i32(a.data(), n), portable_sq)
                << "backend=" << backend->name;
        }
    }
}

TEST(SimdKernels, MaskedSumMatchesNaive) {
    xoshiro256ss rng(55);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 1 + rng.next() % 300;
        std::vector<std::uint64_t> mask((n + 63) / 64, 0);
        std::vector<std::int32_t> values(n);
        std::int64_t expected = 0;
        for (std::size_t i = 0; i < n; ++i) {
            values[i] = static_cast<std::int32_t>(rng.next()) % 1000;
            if (rng.next() % 2 == 0) {
                mask[i / 64] |= std::uint64_t{1} << (i % 64);
                expected += values[i];
            }
        }
        EXPECT_EQ(simd::masked_sum_i32(mask.data(), values.data(), n), expected);
    }
}

// --- encoder equivalence over randomized configurations -------------------

struct encoder_case {
    core::uhd_config cfg;
    data::image_shape shape;
};

encoder_case random_case(xoshiro256ss& rng) {
    encoder_case c;
    const std::size_t dims[] = {64, 128, 192, 256};
    const unsigned levels[] = {4, 8, 16, 32};
    c.cfg.dim = dims[rng.next() % 4];
    c.cfg.quant_levels = levels[rng.next() % 4];
    c.cfg.scramble = rng.next() % 2 == 0;
    c.cfg.policy = rng.next() % 2 == 0 ? core::binarize_policy::mean_intensity
                                       : core::binarize_policy::half_inputs;
    c.cfg.sobol_seed = 1 + rng.next() % 1000;
    const std::size_t side = 4 + rng.next() % 4; // 4x4 .. 7x7 images
    c.shape = {side, side, 1};
    return c;
}

TEST(EncoderEquivalence, WordParallelMatchesScalarOracleAcross100Configs) {
    xoshiro256ss rng(2024);
    for (int config_i = 0; config_i < 100; ++config_i) {
        const encoder_case c = random_case(rng);
        const core::uhd_encoder enc(c.cfg, c.shape);
        for (int image_i = 0; image_i < 3; ++image_i) {
            const auto image = random_bytes(c.shape.pixels(), 255, rng);
            std::vector<std::int32_t> fast(enc.dim());
            std::vector<std::int32_t> oracle(enc.dim());
            enc.encode(image, fast);
            enc.encode_scalar(image, oracle);
            ASSERT_EQ(fast, oracle)
                << "config " << config_i << ": dim=" << c.cfg.dim
                << " levels=" << c.cfg.quant_levels << " scramble=" << c.cfg.scramble
                << " backend=" << kernels::active().name;
        }
    }
}

TEST(EncoderEquivalence, MonotoneFastMatchesGateExactUnaryPath) {
    xoshiro256ss rng(7);
    for (int config_i = 0; config_i < 10; ++config_i) {
        const encoder_case c = random_case(rng);
        const core::uhd_encoder enc(c.cfg, c.shape);
        const auto image = random_bytes(c.shape.pixels(), 255, rng);
        std::vector<std::int32_t> fast(enc.dim());
        std::vector<std::int32_t> gates(enc.dim());
        enc.encode_unary(image, fast, core::unary_fidelity::monotone_fast);
        enc.encode_unary(image, gates, core::unary_fidelity::gate_exact);
        ASSERT_EQ(fast, gates);
    }
}

TEST(EncoderEquivalence, EncodeBatchMatchesPerImageEncode) {
    const core::uhd_config cfg{.dim = 128};
    const data::image_shape shape{6, 6, 1};
    const core::uhd_encoder enc(cfg, shape);
    xoshiro256ss rng(99);

    const std::size_t count = 17;
    std::vector<std::uint8_t> images;
    for (std::size_t i = 0; i < count; ++i) {
        const auto img = random_bytes(shape.pixels(), 255, rng);
        images.insert(images.end(), img.begin(), img.end());
    }

    std::vector<std::int32_t> batched(count * enc.dim());
    enc.encode_batch(images, count, batched);

    for (std::size_t i = 0; i < count; ++i) {
        std::vector<std::int32_t> single(enc.dim());
        enc.encode(std::span<const std::uint8_t>(images).subspan(i * shape.pixels(),
                                                                 shape.pixels()),
                   single);
        const auto slot = std::span<const std::int32_t>(batched)
                              .subspan(i * enc.dim(), enc.dim());
        ASSERT_TRUE(std::equal(single.begin(), single.end(), slot.begin()));
    }

    // Pooled batches are bit-identical regardless of worker count.
    for (const std::size_t threads : {1u, 2u, 4u}) {
        thread_pool pool(threads);
        std::vector<std::int32_t> pooled(count * enc.dim());
        enc.encode_batch(images, count, pooled, &pool);
        ASSERT_EQ(batched, pooled) << "threads=" << threads;
    }
}

TEST(EncoderEquivalence, DatasetBatchOverloadMatchesFlatOverload) {
    const auto ds = data::make_synthetic_digits(12, 5);
    const core::uhd_config cfg{.dim = 128};
    const core::uhd_encoder enc(cfg, ds.shape());

    std::vector<std::int32_t> from_dataset(ds.size() * enc.dim());
    enc.encode_batch(ds, from_dataset);
    for (std::size_t i = 0; i < ds.size(); ++i) {
        std::vector<std::int32_t> single(enc.dim());
        enc.encode(ds.image(i), single);
        const auto slot = std::span<const std::int32_t>(from_dataset)
                              .subspan(i * enc.dim(), enc.dim());
        ASSERT_TRUE(std::equal(single.begin(), single.end(), slot.begin()));
    }
}

TEST(BatchClassifier, PredictBatchAndEvaluateAreThreadCountInvariant) {
    const auto train = data::make_synthetic_digits(60, 5);
    const auto test = data::make_synthetic_digits(30, 6);
    const core::uhd_config cfg{.dim = 256};
    const core::uhd_encoder enc(cfg, train.shape());
    // Both query modes must be thread-count invariant: integer (blocked dot
    // kernels) and binarized (packed associative-memory engine).
    for (const hdc::query_mode qm :
         {hdc::query_mode::integer, hdc::query_mode::binarized}) {
        hdc::hd_classifier<core::uhd_encoder> clf(enc, train.num_classes(),
                                                  hdc::train_mode::raw_sums, qm);
        clf.fit(train);

        const std::vector<std::size_t> serial = clf.predict_batch(test);
        const double serial_accuracy = clf.evaluate(test);
        for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
            thread_pool pool(threads);
            EXPECT_EQ(clf.predict_batch(test, &pool), serial) << "threads=" << threads;
            data::confusion_matrix serial_matrix(test.num_classes());
            data::confusion_matrix pooled_matrix(test.num_classes());
            EXPECT_DOUBLE_EQ(clf.evaluate(test, &serial_matrix),
                             clf.evaluate(test, &pooled_matrix, &pool));
            for (std::size_t t = 0; t < test.num_classes(); ++t) {
                for (std::size_t p = 0; p < test.num_classes(); ++p) {
                    EXPECT_EQ(serial_matrix.count(t, p), pooled_matrix.count(t, p));
                }
            }
            EXPECT_DOUBLE_EQ(clf.evaluate(test, nullptr, &pool), serial_accuracy);
        }
    }
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
        thread_pool pool(threads);
        for (const std::size_t n : {0u, 1u, 7u, 1000u}) {
            std::vector<int> hits(n, 0);
            pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) ++hits[i];
            });
            EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                                    [](int h) { return h == 1; }))
                << "threads=" << threads << " n=" << n;
        }
    }
}

TEST(ThreadPool, EnvThreadsClampsNegativeAndGarbage) {
    // Regression: UHD_THREADS=-1 used to be cast through size_t, requesting
    // ~2^64 workers. Non-positive or unparsable values must fall back to 0
    // (= hardware concurrency).
    const char* saved = std::getenv("UHD_THREADS");
    const std::string saved_value = saved != nullptr ? saved : "";

    ::setenv("UHD_THREADS", "-1", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "-9999999999999", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "garbage", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    // Absurd positive requests (including strtoll overflow saturation)
    // must not ask the pool to actually spawn that many workers.
    ::setenv("UHD_THREADS", "1000000000", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "999999999999999999999999", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "3", 1);
    EXPECT_EQ(thread_pool::env_threads(), 3u);
    ::unsetenv("UHD_THREADS");
    EXPECT_EQ(thread_pool::env_threads(), 0u);

    if (saved != nullptr) {
        ::setenv("UHD_THREADS", saved_value.c_str(), 1);
    }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
    thread_pool pool(2);
    EXPECT_THROW(pool.parallel_for(100,
                                   [](std::size_t begin, std::size_t) {
                                       if (begin == 0) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
}

} // namespace

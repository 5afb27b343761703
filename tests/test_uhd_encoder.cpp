// Tests for the uHD encoder: equivalence of the fast, unary-hardware, and
// exact paths; threshold semantics; paper worked examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/synthetic.hpp"

namespace {

using namespace uhd::core;

uhd_config small_config() {
    uhd_config cfg;
    cfg.dim = 128;
    return cfg;
}

std::vector<std::uint8_t> ramp_image(std::size_t pixels) {
    std::vector<std::uint8_t> image(pixels);
    for (std::size_t p = 0; p < pixels; ++p) {
        image[p] = static_cast<std::uint8_t>((p * 255) / (pixels - 1));
    }
    return image;
}

TEST(UhdEncoder, FastAndUnaryPathsAreBitIdentical) {
    const uhd_encoder enc(small_config(), {6, 6, 1});
    const auto image = ramp_image(36);
    std::vector<std::int32_t> fast(enc.dim());
    std::vector<std::int32_t> unary(enc.dim());
    enc.encode(image, fast);
    enc.encode_unary(image, unary, unary_fidelity::gate_exact);
    EXPECT_EQ(fast, unary);
}

TEST(UhdEncoder, FastAndUnaryAgreeUnderHalfInputsPolicy) {
    uhd_config cfg = small_config();
    cfg.policy = binarize_policy::half_inputs;
    const uhd_encoder enc(cfg, {6, 6, 1});
    const auto image = ramp_image(36);
    std::vector<std::int32_t> fast(enc.dim());
    std::vector<std::int32_t> unary(enc.dim());
    enc.encode(image, fast);
    enc.encode_unary(image, unary, unary_fidelity::gate_exact);
    EXPECT_EQ(fast, unary);
}

TEST(UhdEncoder, ExactPathIsCloseToQuantizedPath) {
    const uhd_encoder enc(small_config(), {6, 6, 1});
    const auto image = ramp_image(36);
    std::vector<std::int32_t> quantized(enc.dim());
    std::vector<std::int32_t> exact(enc.dim());
    enc.encode(image, quantized);
    enc.encode_exact(image, exact);
    // Quantization flips some bits but sums must track each other: the mean
    // absolute difference stays below a few pixels' worth.
    double diff = 0.0;
    for (std::size_t d = 0; d < enc.dim(); ++d) {
        diff += std::abs(quantized[d] - exact[d]);
    }
    EXPECT_LT(diff / static_cast<double>(enc.dim()), 8.0);
}

TEST(UhdEncoder, MeanCenteringMakesSumNearZero) {
    const uhd_encoder enc(small_config(), {6, 6, 1});
    const auto image = ramp_image(36);
    std::vector<std::int32_t> acc(enc.dim());
    enc.encode(image, acc);
    std::int64_t total = 0;
    for (const std::int32_t v : acc) total += v;
    // Exact centering: |mean| < 1 (rounding of the doubled threshold only).
    EXPECT_LT(std::abs(static_cast<double>(total) / static_cast<double>(enc.dim())), 1.0);
}

TEST(UhdEncoder, DoubledThresholdMatchesPopcountMean) {
    const uhd_encoder enc(small_config(), {6, 6, 1});
    const auto image = ramp_image(36);
    // 2*TOB must equal 2 * mean_d(ones[d]) up to rounding; reconstruct the
    // ones-counts from the centered output: ones = (out + tau2) / 2.
    const std::int32_t tau2 = enc.doubled_threshold(image);
    std::vector<std::int32_t> acc(enc.dim());
    enc.encode(image, acc);
    std::int64_t ones_total = 0;
    for (const std::int32_t v : acc) ones_total += (v + tau2) / 2;
    const double mean_ones =
        static_cast<double>(ones_total) / static_cast<double>(enc.dim());
    EXPECT_NEAR(static_cast<double>(tau2), 2.0 * mean_ones, 1.0);
}

TEST(UhdEncoder, HalfInputsThresholdIsPixelCount) {
    uhd_config cfg = small_config();
    cfg.policy = binarize_policy::half_inputs;
    const uhd_encoder enc(cfg, {6, 6, 1});
    EXPECT_EQ(enc.doubled_threshold(ramp_image(36)), 36);
}

TEST(UhdEncoder, QuantizeIntensityEndpoints) {
    const uhd_encoder enc(small_config(), {4, 4, 1});
    EXPECT_EQ(enc.quantize_intensity(0), 0);
    EXPECT_EQ(enc.quantize_intensity(255), 15);
    EXPECT_EQ(enc.quantize_intensity(128), 8); // round(128/255 * 15) = 8
}

TEST(UhdEncoder, DeterministicAcrossInstances) {
    const uhd_encoder a(small_config(), {6, 6, 1});
    const uhd_encoder b(small_config(), {6, 6, 1});
    const auto image = ramp_image(36);
    std::vector<std::int32_t> va(a.dim());
    std::vector<std::int32_t> vb(b.dim());
    a.encode(image, va);
    b.encode(image, vb);
    EXPECT_EQ(va, vb); // single-iteration determinism: no randomness at all
}

TEST(UhdEncoder, SeedChangesBankButStaysDeterministic) {
    uhd_config other = small_config();
    other.sobol_seed = 12345;
    const uhd_encoder a(small_config(), {6, 6, 1});
    const uhd_encoder b(other, {6, 6, 1});
    const auto image = ramp_image(36);
    std::vector<std::int32_t> va(a.dim());
    std::vector<std::int32_t> vb(b.dim());
    a.encode(image, va);
    b.encode(image, vb);
    EXPECT_NE(va, vb);
}

TEST(UhdEncoder, EncodeSignMatchesAccumulatorSign) {
    const uhd_encoder enc(small_config(), {6, 6, 1});
    const auto image = ramp_image(36);
    std::vector<std::int32_t> acc(enc.dim());
    enc.encode(image, acc);
    const auto hv = enc.encode_sign(image);
    for (std::size_t d = 0; d < enc.dim(); ++d) {
        EXPECT_EQ(hv.element(d), acc[d] >= 0 ? +1 : -1);
    }
}

TEST(UhdEncoder, ScrambleOffStillWorks) {
    uhd_config cfg = small_config();
    cfg.scramble = false;
    const uhd_encoder enc(cfg, {6, 6, 1});
    std::vector<std::int32_t> fast(enc.dim());
    std::vector<std::int32_t> unary(enc.dim());
    const auto image = ramp_image(36);
    enc.encode(image, fast);
    enc.encode_unary(image, unary, unary_fidelity::gate_exact);
    EXPECT_EQ(fast, unary);
}

TEST(UhdEncoder, Validation) {
    EXPECT_THROW(uhd_encoder(uhd_config{.dim = 32}, {4, 4, 1}), uhd::error);
    EXPECT_THROW(uhd_encoder(small_config(), {4, 4, 3}), uhd::error);
    // The level count sizes the unary stream table, so it is range-checked
    // before anything is built from it, in both bank modes.
    for (const uhd::bank_mode bank : {uhd::bank_mode::stored, uhd::bank_mode::rematerialize}) {
        for (const unsigned levels : {1u, 257u, 0xFFFFFFFFu}) {
            uhd_config cfg = small_config();
            cfg.quant_levels = levels;
            cfg.bank = bank;
            EXPECT_THROW(uhd_encoder(cfg, {4, 4, 1}), uhd::error) << "levels " << levels;
        }
    }
    const uhd_encoder enc(small_config(), {4, 4, 1});
    std::vector<std::int32_t> wrong(enc.dim() + 1);
    EXPECT_THROW(enc.encode(ramp_image(16), wrong), uhd::error);
    std::vector<std::int32_t> acc(enc.dim());
    EXPECT_THROW(enc.encode(ramp_image(17), acc), uhd::error);
}

TEST(UhdEncoder, ConfigDerivedQuantities) {
    uhd_config cfg;
    EXPECT_EQ(cfg.stream_length(), 16u);
    EXPECT_EQ(cfg.scalar_bits(), 4u);
    cfg.quant_levels = 64;
    EXPECT_EQ(cfg.scalar_bits(), 6u);
}

TEST(UhdEncoder, MemoryScalesWithDimAndPixels) {
    uhd_config big = small_config();
    big.dim = 512;
    const uhd_encoder a(small_config(), {4, 4, 1});
    const uhd_encoder b(big, {4, 4, 1});
    EXPECT_GT(b.memory_bytes(), a.memory_bytes());
}

TEST(EncoderEquivalence, BatchOrderMatchesScalarOracle) {
    // encode_sign_batch counts its whole batch one bank chunk at a time;
    // row i must still be the sign of image i's byte-at-a-time oracle
    // encode. Batch sizes straddle the serve engine's 32-request
    // micro-batch. D = 64 is one ragged chunk, 1000 two chunks with a
    // ragged last word, 1088 a one-word last chunk, and 8192 sixteen
    // chunks (a bank past L2). xi = 2, 16 and 256 give M = 1, 4 and 8
    // planes. The batches mix digits with all-zero images (empty active
    // lists) and all-max images (every pixel listed).
    const uhd::data::dataset digits = uhd::data::make_synthetic_digits(64, 19);
    const std::size_t pixels = digits.shape().pixels();
    // Distinct images: all-zero, all-max, then the digits. The 64-image
    // batch pool repeats the first two among the digits, and each distinct
    // image is run through the oracle once.
    std::vector<std::vector<std::uint8_t>> distinct = {
        std::vector<std::uint8_t>(pixels, 0), std::vector<std::uint8_t>(pixels, 255)};
    const char* const kind[] = {"all-zero", "all-max", "digit"};
    std::vector<std::size_t> pool;
    std::vector<std::uint8_t> images;
    for (std::size_t i = 0; i < 64; ++i) {
        if (i % 3 == 1) {
            pool.push_back(0);
        } else if (i % 5 == 2) {
            pool.push_back(1);
        } else {
            const auto digit = digits.image(i);
            distinct.emplace_back(digit.begin(), digit.end());
            pool.push_back(distinct.size() - 1);
        }
        images.insert(images.end(), distinct[pool.back()].begin(),
                      distinct[pool.back()].end());
    }
    for (const unsigned xi : {2u, 16u, 256u}) {
        for (const std::size_t dim : {64u, 1000u, 1088u, 8192u}) {
            uhd_config cfg;
            cfg.dim = dim;
            cfg.quant_levels = xi;
            const uhd_encoder enc(cfg, digits.shape());
            const std::size_t words = uhd::kernels::sign_words(dim);
            // The oracle rows: bit d set exactly when the encode is < 0.
            std::vector<std::uint64_t> expected(distinct.size() * words, 0);
            std::vector<std::int32_t> acc(dim);
            for (std::size_t k = 0; k < distinct.size(); ++k) {
                enc.encode_scalar(distinct[k], acc);
                for (std::size_t d = 0; d < dim; ++d) {
                    if (acc[d] < 0) expected[k * words + d / 64] |= std::uint64_t{1} << (d % 64);
                }
            }
            for (const std::size_t count : {1u, 2u, 31u, 32u, 33u, 64u}) {
                std::vector<std::uint64_t> got(count * words, ~std::uint64_t{0});
                enc.encode_sign_batch(std::span(images).first(count * pixels), count, got);
                for (std::size_t i = 0; i < count; ++i) {
                    for (std::size_t w = 0; w < words; ++w) {
                        ASSERT_EQ(got[i * words + w], expected[pool[i] * words + w])
                            << "xi=" << xi << " D=" << dim << " batch of " << count
                            << ": image " << i << " (" << kind[std::min<std::size_t>(pool[i], 2)]
                            << "), word " << w << ", backend "
                            << uhd::kernels::active().name;
                    }
                }
            }
        }
    }
}

} // namespace

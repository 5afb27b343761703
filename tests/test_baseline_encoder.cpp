// Tests for the baseline position x level encoder, checked against a naive
// reference implementation built from the public item-memory API.
#include <gtest/gtest.h>

#include "uhd/common/error.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/baseline_encoder.hpp"

namespace {

using namespace uhd::hdc;

baseline_config small_config() {
    baseline_config cfg;
    cfg.dim = 128;
    cfg.levels = 16;
    cfg.seed = 11;
    return cfg;
}

std::vector<std::uint8_t> ramp_image(std::size_t pixels) {
    std::vector<std::uint8_t> image(pixels);
    for (std::size_t p = 0; p < pixels; ++p) {
        image[p] = static_cast<std::uint8_t>((p * 255) / (pixels - 1));
    }
    return image;
}

TEST(BaselineEncoder, MatchesNaiveReference) {
    const uhd::data::image_shape shape{4, 4, 1};
    const baseline_encoder enc(small_config(), shape);
    const auto image = ramp_image(16);

    std::vector<std::int32_t> fast(enc.dim());
    enc.encode(image, fast);

    // Naive reference: explicit bind-and-bundle per pixel via the public
    // item-memory accessors.
    for (std::size_t d = 0; d < enc.dim(); ++d) {
        std::int32_t acc = 0;
        for (std::size_t p = 0; p < 16; ++p) {
            const std::size_t k = enc.level_memory().level_of(image[p]);
            // Bipolar binding is XOR on the packed bits (bit 1 = -1).
            const int bound = enc.positions().vector(p).bits().bit(d) !=
                                      enc.level_memory().vector(k).bits().bit(d)
                                  ? -1
                                  : +1;
            acc += bound;
        }
        ASSERT_EQ(fast[d], acc) << "dimension " << d;
    }
}

TEST(BaselineEncoder, SignMatchesAccumulator) {
    const uhd::data::image_shape shape{4, 4, 1};
    const baseline_encoder enc(small_config(), shape);
    const auto image = ramp_image(16);
    std::vector<std::int32_t> acc(enc.dim());
    enc.encode(image, acc);
    const auto signed_hv = enc.encode_sign(image);
    for (std::size_t d = 0; d < enc.dim(); ++d) {
        EXPECT_EQ(signed_hv.bits().bit(d), acc[d] < 0);
    }
}

TEST(BaselineEncoder, ReseedChangesEncoding) {
    const uhd::data::image_shape shape{4, 4, 1};
    baseline_encoder enc(small_config(), shape);
    const auto image = ramp_image(16);
    std::vector<std::int32_t> before(enc.dim());
    enc.encode(image, before);
    enc.reseed(99);
    std::vector<std::int32_t> after(enc.dim());
    enc.encode(image, after);
    EXPECT_NE(before, after);
    // Reseeding back restores the original encoding (determinism).
    enc.reseed(11);
    std::vector<std::int32_t> restored(enc.dim());
    enc.encode(image, restored);
    EXPECT_EQ(before, restored);
}

TEST(BaselineEncoder, DifferentImagesProduceDifferentEncodings) {
    const uhd::data::image_shape shape{4, 4, 1};
    const baseline_encoder enc(small_config(), shape);
    std::vector<std::int32_t> a(enc.dim());
    std::vector<std::int32_t> b(enc.dim());
    enc.encode(ramp_image(16), a);
    enc.encode(std::vector<std::uint8_t>(16, 255), b);
    EXPECT_NE(a, b);
}

TEST(BaselineEncoder, LfsrSourceProducesValidEncodings) {
    baseline_config cfg = small_config();
    cfg.source = randomness_source::lfsr;
    const baseline_encoder enc(cfg, uhd::data::image_shape{4, 4, 1});
    std::vector<std::int32_t> acc(enc.dim());
    enc.encode(ramp_image(16), acc);
    for (const std::int32_t v : acc) {
        EXPECT_LE(std::abs(v), 16); // bounded by pixel count
    }
}

TEST(BaselineEncoder, Validation) {
    EXPECT_THROW(baseline_encoder(baseline_config{.dim = 32}, {4, 4, 1}), uhd::error);
    EXPECT_THROW(baseline_encoder(small_config(), {4, 4, 3}), uhd::error);
    const baseline_encoder enc(small_config(), {4, 4, 1});
    std::vector<std::int32_t> wrong(enc.dim() + 1);
    EXPECT_THROW(enc.encode(ramp_image(16), wrong), uhd::error);
    std::vector<std::int32_t> acc(enc.dim());
    EXPECT_THROW(enc.encode(ramp_image(15), acc), uhd::error);
}

TEST(BaselineEncoder, MemoryFootprintScalesWithDimension) {
    baseline_config small = small_config();
    baseline_config big = small_config();
    big.dim = 1024;
    const baseline_encoder a(small, {4, 4, 1});
    const baseline_encoder b(big, {4, 4, 1});
    EXPECT_GT(b.memory_bytes(), a.memory_bytes());
}

TEST(BaselineEncoder, AccumulatorBoundedByPixelCount) {
    const uhd::data::image_shape shape{8, 8, 1};
    const baseline_encoder enc(small_config(), shape);
    std::vector<std::int32_t> acc(enc.dim());
    enc.encode(ramp_image(64), acc);
    for (const std::int32_t v : acc) {
        EXPECT_LE(std::abs(v), 64);
        EXPECT_EQ((v + 64) % 2, 0); // parity: sum of 64 odd terms is even
    }
}

} // namespace

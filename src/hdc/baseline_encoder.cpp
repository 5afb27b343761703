#include "uhd/hdc/baseline_encoder.hpp"

#include "uhd/common/bits.hpp"
#include "uhd/common/error.hpp"

namespace uhd::hdc {

baseline_encoder::baseline_encoder(const baseline_config& config, data::image_shape shape)
    : config_(config), shape_(shape) {
    UHD_REQUIRE(config.dim >= 64, "dimension too small to be hyperdimensional");
    UHD_REQUIRE(shape.channels == 1, "baseline encoder expects grayscale images");
    reseed(config.seed);
}

void baseline_encoder::reseed(std::uint64_t seed) {
    config_.seed = seed;
    positions_.emplace(shape_.pixels(), config_.dim, config_.source, hash64(seed),
                       config_.bank);
    levels_.emplace(config_.levels, config_.dim, config_.source,
                    hash64(seed ^ 0xabcdULL), config_.bank);
}

void baseline_encoder::encode(std::span<const std::uint8_t> image,
                              std::span<std::int32_t> out) const {
    UHD_REQUIRE(image.size() == shape_.pixels(), "image size mismatch");
    UHD_REQUIRE(out.size() == config_.dim, "output accumulator size mismatch");

    const std::size_t words_per_row = words_for_bits(config_.dim);
    // Count, per dimension, how many pixels bound to a logic-1 (-1) bit;
    // the bipolar sum is then H - 2 * ones. uint16 is safe: H <= 4096 here
    // and in the paper (28x28 or 32x32). Sized to whole words so the
    // unrolled lane loop may run over the tail (tail bits are zero anyway).
    std::vector<std::uint16_t> ones(words_per_row * 64, 0);

    for (std::size_t p = 0; p < image.size(); ++p) {
        const std::size_t k = levels_->level_of(image[p]);
        const std::uint64_t* prow = positions_->row_words(p).data();
        const std::uint64_t* lrow = levels_->row_words(k).data();
        std::uint16_t* lanes = ones.data();
        for (std::size_t w = 0; w < words_per_row; ++w) {
            std::uint64_t x = prow[w] ^ lrow[w]; // binding: bipolar multiply
            std::uint16_t* base = lanes + w * 64;
            for (int j = 0; j < 64; ++j) {
                base[j] = static_cast<std::uint16_t>(base[j] + ((x >> j) & 1u));
            }
        }
    }

    const std::int32_t h = static_cast<std::int32_t>(image.size());
    for (std::size_t d = 0; d < config_.dim; ++d) {
        out[d] = h - 2 * static_cast<std::int32_t>(ones[d]);
    }
}

// uhd-lint: test-reference test_sim checks the baseline datapath model against it
hypervector baseline_encoder::encode_sign(std::span<const std::uint8_t> image) const {
    std::vector<std::int32_t> acc(config_.dim);
    encode(image, acc);
    bs::bitstream bits(config_.dim);
    for (std::size_t d = 0; d < config_.dim; ++d) {
        if (acc[d] < 0) bits.set_bit(d, true); // bit 1 = -1
    }
    return hypervector(std::move(bits));
}

std::size_t baseline_encoder::memory_bytes() const noexcept {
    return positions_->memory_bytes() + levels_->memory_bytes();
}

} // namespace uhd::hdc

// Baseline HDC image encoder (paper Fig. 1): per-pixel binding of position
// and level hypervectors, bundled over all pixels.
//
// This is the comparison target for every experiment: it needs H position
// hypervectors and 2^n level hypervectors in memory, performs H binding
// multiplications (XORs) per image, and — to reach good accuracy — must be
// re-generated iteratively (i = 1..100) with fresh randomness, which uHD
// eliminates.
#ifndef UHD_HDC_BASELINE_ENCODER_HPP
#define UHD_HDC_BASELINE_ENCODER_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "uhd/data/dataset.hpp"
#include "uhd/hdc/accumulator.hpp"
#include "uhd/hdc/item_memory.hpp"

namespace uhd::hdc {

/// Configuration of the baseline encoder.
struct baseline_config {
    std::size_t dim = 1024;          ///< hypervector dimension D
    std::size_t levels = 256;        ///< 2^n intensity levels (n = 8)
    randomness_source source = randomness_source::xoshiro;
    std::uint64_t seed = 1;          ///< iteration seed (regenerates P and L)
    /// Keep the item memories resident (stored) or regenerate rows on the
    /// fly from per-row generator state (rematerialize; bit-identical).
    bank_mode bank = bank_mode::stored;
};

/// Position x Level encoder with packed item memories.
class baseline_encoder {
public:
    baseline_encoder(const baseline_config& config, data::image_shape shape);

    /// Hypervector dimension D.
    [[nodiscard]] std::size_t dim() const noexcept { return config_.dim; }

    /// Pixel count H of the images this encoder accepts.
    [[nodiscard]] std::size_t pixels() const noexcept { return shape_.pixels(); }

    /// Regenerate P and L with a new seed (one "iteration" of the paper's
    /// iterative hypervector search).
    void reseed(std::uint64_t seed);

    /// Encode a grayscale image: out[d] = sum_p (P_p * L_{k(x_p)})[d].
    /// `image` must have pixels() values; `out` must have dim() entries and
    /// is overwritten.
    void encode(std::span<const std::uint8_t> image, std::span<std::int32_t> out) const;

    /// Encode and binarize (the image hypervector the hardware emits).
    [[nodiscard]] hypervector encode_sign(std::span<const std::uint8_t> image) const;

    /// Item memories (for tests and the hardware model).
    [[nodiscard]] const position_item_memory& positions() const noexcept {
        return *positions_;
    }
    [[nodiscard]] const level_item_memory& level_memory() const noexcept {
        return *levels_;
    }

    /// Heap footprint of the generated hypervector memories — the dominant
    /// dynamic-memory term in Table I's baseline row.
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

private:
    baseline_config config_;
    data::image_shape shape_;
    // unique_ptr-free: reconstructed in place on reseed via std::optional.
    std::optional<position_item_memory> positions_;
    std::optional<level_item_memory> levels_;
};

} // namespace uhd::hdc

#endif // UHD_HDC_BASELINE_ENCODER_HPP

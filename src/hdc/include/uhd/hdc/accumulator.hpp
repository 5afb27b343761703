// Bundling accumulator: the integer-domain hypervector used between
// binding and binarization (the "non-quantized class hypervector" of the
// paper). Supports adding packed sign words, raw integer rows and other
// accumulators, and the sign binarization that produces class hypervectors.
#ifndef UHD_HDC_ACCUMULATOR_HPP
#define UHD_HDC_ACCUMULATOR_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "uhd/hdc/hypervector.hpp"

namespace uhd::hdc {

/// Integer accumulator over hypervector dimensions (bundling domain).
class accumulator {
public:
    accumulator() = default;

    /// Zero accumulator of dimension `dim`.
    explicit accumulator(std::size_t dim) : values_(dim, 0) {}

    /// Accumulator holding `values` (its dimension is their count); takes
    /// the vector's storage without copying it.
    explicit accumulator(std::vector<std::int32_t> values) noexcept
        : values_(std::move(values)) {}

    [[nodiscard]] std::size_t dim() const noexcept { return values_.size(); }

    [[nodiscard]] std::span<const std::int32_t> values() const noexcept {
        return {values_.data(), values_.size()};
    }
    [[nodiscard]] std::span<std::int32_t> values() noexcept {
        return {values_.data(), values_.size()};
    }

    /// Add a +-1 vector given as ceil(dim/64) packed sign words (bit 1 =
    /// -1, tail bits beyond dim() zero — the sign_binarize output, and a
    /// hypervector's bits().words()): the allocation-free bundling path of
    /// the training engine.
    void add_sign_words(std::span<const std::uint64_t> words);

    /// Add another accumulator element-wise.
    void add(const accumulator& other);

    /// Add a raw integer vector element-wise (pre-binarization bundling).
    void add_values(std::span<const std::int32_t> other);

    /// Subtract a raw integer vector element-wise.
    void subtract_values(std::span<const std::int32_t> other);

    /// Binarize with the sign function: value >= 0 maps to +1.
    /// (Ties to +1, matching the hardware's popcount >= TOB rule.)
    [[nodiscard]] hypervector sign() const;

    /// Heap footprint (Table I memory accounting).
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return values_.capacity() * sizeof(std::int32_t);
    }

private:
    std::vector<std::int32_t> values_;
};

} // namespace uhd::hdc

#endif // UHD_HDC_ACCUMULATOR_HPP

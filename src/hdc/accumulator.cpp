#include "uhd/hdc/accumulator.hpp"

#include "uhd/common/error.hpp"

namespace uhd::hdc {

void accumulator::add_sign_words(std::span<const std::uint64_t> words) {
    UHD_REQUIRE(words.size() == (dim() + 63) / 64, "sign word count mismatch");
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t bits = words[w];
        const std::size_t base = w * 64;
        const std::size_t lanes = std::min<std::size_t>(64, dim() - base);
        for (std::size_t j = 0; j < lanes; ++j) {
            // bit 1 encodes -1, bit 0 encodes +1
            values_[base + j] += 1 - 2 * static_cast<std::int32_t>(bits & 1u);
            bits >>= 1;
        }
    }
}

void accumulator::add(const accumulator& other) {
    UHD_REQUIRE(other.dim() == dim(), "accumulator dimension mismatch");
    for (std::size_t i = 0; i < values_.size(); ++i) values_[i] += other.values_[i];
}

void accumulator::add_values(std::span<const std::int32_t> other) {
    UHD_REQUIRE(other.size() == dim(), "accumulator dimension mismatch");
    for (std::size_t i = 0; i < values_.size(); ++i) values_[i] += other[i];
}

void accumulator::subtract_values(std::span<const std::int32_t> other) {
    UHD_REQUIRE(other.size() == dim(), "accumulator dimension mismatch");
    for (std::size_t i = 0; i < values_.size(); ++i) values_[i] -= other[i];
}

hypervector accumulator::sign() const {
    bs::bitstream bits(dim());
    for (std::size_t i = 0; i < values_.size(); ++i) {
        if (values_[i] < 0) bits.set_bit(i, true); // bit 1 = -1
    }
    return hypervector(std::move(bits));
}

} // namespace uhd::hdc

#include "uhd/hdc/hypervector.hpp"

#include "uhd/common/error.hpp"

namespace uhd::hdc {

hypervector hypervector::random(std::size_t dim, xoshiro256ss& rng) {
    bs::bitstream bits(dim);
    auto words = bits.mutable_words();
    for (auto& w : words) w = rng.next();
    bits.mask_tail();
    return hypervector(std::move(bits));
}

std::int64_t hypervector::dot(const hypervector& other) const {
    UHD_REQUIRE(dim() == other.dim(), "hypervector dimension mismatch");
    const std::int64_t mismatches =
        static_cast<std::int64_t>(bs::hamming_distance(bits_, other.bits_));
    return static_cast<std::int64_t>(dim()) - 2 * mismatches;
}

} // namespace uhd::hdc

// Bipolar hypervector: the basic HDC datatype.
//
// A hypervector is a D-dimensional vector of +1/-1 entries, stored packed:
// bit b represents the value (-1)^b, so bit 0 = +1 and bit 1 = -1. Under
// this mapping, element-wise multiplication (binding) is bit-wise XOR —
// exactly the paper's Fig. 1(b) convention — and the dot product is
// D - 2 * hamming_distance.
#ifndef UHD_HDC_HYPERVECTOR_HPP
#define UHD_HDC_HYPERVECTOR_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "uhd/bitstream/bitstream.hpp"
#include "uhd/common/rng.hpp"

namespace uhd::hdc {

/// Packed bipolar hypervector of fixed dimension.
class hypervector {
public:
    hypervector() = default;

    /// All-(+1) hypervector of dimension `dim`.
    explicit hypervector(std::size_t dim) : bits_(dim) {}

    /// Wrap an existing packed bitstream (bit 1 = -1).
    explicit hypervector(bs::bitstream bits) : bits_(std::move(bits)) {}

    /// i.i.d. random hypervector (each element +-1 with probability 1/2).
    [[nodiscard]] static hypervector random(std::size_t dim, xoshiro256ss& rng);

    [[nodiscard]] std::size_t dim() const noexcept { return bits_.size(); }

    /// Underlying packed representation (bit 1 = -1).
    [[nodiscard]] const bs::bitstream& bits() const noexcept { return bits_; }
    [[nodiscard]] bs::bitstream& bits() noexcept { return bits_; }

    /// Number of -1 entries.
    [[nodiscard]] std::size_t count_negative() const noexcept { return bits_.popcount(); }

    /// Dot product with another hypervector of the same dimension.
    [[nodiscard]] std::int64_t dot(const hypervector& other) const;

    [[nodiscard]] bool operator==(const hypervector&) const noexcept = default;

private:
    bs::bitstream bits_;
};

} // namespace uhd::hdc

#endif // UHD_HDC_HYPERVECTOR_HPP

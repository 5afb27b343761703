// Packed bit-stream container — the fundamental datatype of unary bit-stream
// computing (UBC) and of the hypervector representations built on top of it.
//
// Bits are stored LSB-first inside 64-bit words; index 0 is the first bit of
// the stream. The class maintains the invariant that bits beyond size() in
// the last word are zero, so popcount() and comparisons can operate on whole
// words.
#ifndef UHD_BITSTREAM_BITSTREAM_HPP
#define UHD_BITSTREAM_BITSTREAM_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "uhd/common/bits.hpp"

namespace uhd::bs {

/// Fixed-length packed sequence of bits with element-wise logic operations.
class bitstream {
public:
    /// Empty stream (size 0).
    bitstream() = default;

    /// Stream of `length` bits, all set to `fill`.
    explicit bitstream(std::size_t length, bool fill = false);

    /// Build from a string of '0'/'1' characters; throws on other characters.
    [[nodiscard]] static bitstream from_string(std::string_view text);

    /// Number of bits in the stream.
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// Read bit `i`; throws when out of range.
    [[nodiscard]] bool bit(std::size_t i) const;

    /// Write bit `i`; throws when out of range.
    void set_bit(std::size_t i, bool value);

    /// Number of logic-1s in the stream.
    [[nodiscard]] std::size_t popcount() const noexcept;

    /// True when every bit is 1 (vacuously true for empty streams).
    [[nodiscard]] bool all() const noexcept;

    /// Read-only access to the packed words (tail bits beyond size() are 0).
    [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
        return {words_.data(), words_.size()};
    }

    /// Mutable word access for high-throughput kernels. The caller must
    /// preserve the tail-zero invariant; call mask_tail() when unsure.
    [[nodiscard]] std::span<std::uint64_t> mutable_words() noexcept {
        return {words_.data(), words_.size()};
    }

    /// Clear any bits at positions >= size() in the last word.
    void mask_tail() noexcept;

    // Element-wise logic; all binary operators require equal lengths.
    bitstream& operator&=(const bitstream& rhs);
    bitstream& operator|=(const bitstream& rhs);
    // uhd-lint: test-reference test_unary checks the comparator's minimum against it
    [[nodiscard]] friend bitstream operator&(bitstream lhs, const bitstream& rhs) {
        lhs &= rhs;
        return lhs;
    }
    // uhd-lint: test-reference test_unary checks the comparator's maximum against it
    [[nodiscard]] friend bitstream operator|(bitstream lhs, const bitstream& rhs) {
        lhs |= rhs;
        return lhs;
    }
    /// Bit-wise NOT (tail bits remain 0).
    [[nodiscard]] bitstream operator~() const;

    [[nodiscard]] bool operator==(const bitstream& rhs) const noexcept = default;

    /// '0'/'1' rendering, index 0 first.
    [[nodiscard]] std::string to_string() const;

private:
    void check_same_size(const bitstream& rhs) const;

    std::size_t size_ = 0;
    std::vector<std::uint64_t> words_;
};

/// Number of positions where `a` and `b` differ (Hamming distance).
/// Throws when lengths differ.
[[nodiscard]] std::size_t hamming_distance(const bitstream& a, const bitstream& b);

} // namespace uhd::bs

#endif // UHD_BITSTREAM_BITSTREAM_HPP

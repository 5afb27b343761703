// Small bit-manipulation utilities shared by the bit-stream and hardware
// modules. Thin wrappers over <bit> with the word-level helpers the packed
// bit-stream container needs.
#ifndef UHD_COMMON_BITS_HPP
#define UHD_COMMON_BITS_HPP

#include <bit>
#include <cstddef>
#include <cstdint>

namespace uhd {

/// Number of bits in the packed word type used by bit-stream storage.
inline constexpr std::size_t word_bits = 64;

/// Words needed to hold `n` bits.
[[nodiscard]] constexpr std::size_t words_for_bits(std::size_t n) noexcept {
    return (n + word_bits - 1) / word_bits;
}

/// Population count of a 64-bit word.
[[nodiscard]] constexpr int popcount64(std::uint64_t w) noexcept {
    return std::popcount(w);
}

/// Mask with the low `n` bits set (n in [0, 64]).
[[nodiscard]] constexpr std::uint64_t low_mask(std::size_t n) noexcept {
    return n >= word_bits ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
}

/// ceil(log2(x)) for x >= 1; number of bits needed to count up to x.
[[nodiscard]] constexpr int ceil_log2(std::uint64_t x) noexcept {
    if (x <= 1) return 0;
    return 64 - std::countl_zero(x - 1);
}

} // namespace uhd

#endif // UHD_COMMON_BITS_HPP

// Unary (thermometer) coding and the paper's lightweight unary comparator.
//
// A unary bit-stream of length N represents an integer v in [0, N] by setting
// exactly v bits, all grouped at one end of the stream:
//
//     X1 -> 0 0 0 0 0 1 1   (v = 2, ones trailing)
//     X2 -> 0 0 1 1 1 1 1   (v = 5, ones trailing)
//
// Because two unary streams of the same alignment are maximally correlated,
// bit-wise AND yields the minimum and bit-wise OR the maximum of their
// values — the property the paper's Fig. 4 comparator exploits:
//
//     min  = A AND B                 (bit-wise)
//     tmp  = min OR (NOT B)          (bit-wise; all-1s iff min == B)
//     A>=B = AND-reduce(tmp)         (N-input AND)
#ifndef UHD_BITSTREAM_UNARY_HPP
#define UHD_BITSTREAM_UNARY_HPP

#include <cstddef>
#include <cstdint>

#include "uhd/bitstream/bitstream.hpp"

namespace uhd::bs {

/// Where the logic-1s of a thermometer stream are grouped.
enum class unary_alignment {
    ones_leading,  ///< 1s at the start of the stream: 1110000
    ones_trailing, ///< 1s at the end of the stream:   0000111 (paper's Fig. 4)
};

/// Encode integer `value` (0 <= value <= length) as a thermometer stream.
[[nodiscard]] bitstream unary_encode(std::size_t value, std::size_t length,
                                     unary_alignment align = unary_alignment::ones_trailing);

/// Decode a thermometer stream to its integer value (= popcount).
/// Throws when the stream is not a valid thermometer code for `align`.
[[nodiscard]] std::size_t unary_decode(const bitstream& stream,
                                       unary_alignment align = unary_alignment::ones_trailing);

/// True when `stream` is a valid thermometer code under `align`.
[[nodiscard]] bool is_unary(const bitstream& stream,
                            unary_alignment align = unary_alignment::ones_trailing);

/// The paper's Fig. 4 comparator: true iff value(a) >= value(b).
///
/// Gate-for-gate faithful to the proposed circuit (AND for the minimum, OR
/// against the inverted second operand, N-input AND reduction); both inputs
/// must be thermometer streams with the same length and alignment.
[[nodiscard]] bool unary_compare_geq(const bitstream& a, const bitstream& b);

} // namespace uhd::bs

#endif // UHD_BITSTREAM_UNARY_HPP

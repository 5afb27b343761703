// Word-level implementations of the unary (thermometer) operations.
//
// Thermometer codes are runs of 1s at one end of the stream, so every
// operation here reduces to whole-word arithmetic on the packed storage:
// encode is a word fill plus one boundary mask, and the Fig. 4 comparator
// folds its three gate stages into one pass of word loads with no
// temporary streams. Each rewrite is bit- and result-identical to the
// original bit-at-a-time formulation (tests/test_unary.cpp keeps per-bit
// reference implementations and checks equivalence over randomized values,
// lengths, and alignments).
#include "uhd/bitstream/unary.hpp"

#include "uhd/common/bits.hpp"
#include "uhd/common/error.hpp"

namespace uhd::bs {

bitstream unary_encode(std::size_t value, std::size_t length, unary_alignment align) {
    UHD_REQUIRE(value <= length, "unary value exceeds stream length");
    bitstream out(length);
    if (value == 0) return out;
    const auto words = out.mutable_words();
    // The run occupies bits [first, first + value) of the stream; fill the
    // covered words whole and trim the two boundary words with masks.
    const std::size_t first = align == unary_alignment::ones_leading ? 0 : length - value;
    const std::size_t last = first + value; // one past the run
    const std::size_t first_word = first / word_bits;
    const std::size_t last_word = (last - 1) / word_bits;
    for (std::size_t w = first_word; w <= last_word; ++w) words[w] = ~std::uint64_t{0};
    words[first_word] &= ~low_mask(first % word_bits);
    if (last % word_bits != 0) words[last_word] &= low_mask(last % word_bits);
    return out;
}

// uhd-lint: test-reference test_unary checks unary_encode's output and the min/max closure with it
bool is_unary(const bitstream& stream, unary_alignment align) {
    const std::size_t n = stream.size();
    const std::size_t v = stream.popcount();
    if (v == 0) return true;
    if (align == unary_alignment::ones_leading) {
        // The run of ones must occupy positions [0, v).
        return stream.bit(v - 1) && (v == n || !stream.bit(v));
    }
    // ones_trailing: the run of ones must occupy positions [n - v, n).
    return stream.bit(n - v) && (v == n || !stream.bit(n - v - 1));
}

// uhd-lint: test-reference test_unary reads the comparator algebra's results back with it
std::size_t unary_decode(const bitstream& stream, unary_alignment align) {
    UHD_REQUIRE(is_unary(stream, align), "stream is not a valid thermometer code");
    return stream.popcount();
}

bool unary_compare_geq(const bitstream& a, const bitstream& b) {
    UHD_REQUIRE(a.size() == b.size(), "unary comparator inputs must have equal length");
    // Fig. 4: minimum via AND, then OR with the inverted second operand,
    // then an N-input AND reduction. Per word that is
    //     all-ones((a & b) | ~b)  ==  ((b & ~a) == 0)
    // (De Morgan), so the whole comparator is one pass of word loads — no
    // temporary streams, same gates, same result. Tail bits beyond size()
    // are zero in both operands, so they can never veto the reduction.
    const auto a_words = a.words();
    const auto b_words = b.words();
    for (std::size_t w = 0; w < a_words.size(); ++w) {
        if ((b_words[w] & ~a_words[w]) != 0) return false;
    }
    return true;
}

} // namespace uhd::bs

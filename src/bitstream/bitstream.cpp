#include "uhd/bitstream/bitstream.hpp"

#include "uhd/common/error.hpp"

namespace uhd::bs {

bitstream::bitstream(std::size_t length, bool fill)
    : size_(length), words_(words_for_bits(length), fill ? ~std::uint64_t{0} : 0) {
    mask_tail();
}

// uhd-lint: test-reference test_unary and test_bitstream write their streams with it
bitstream bitstream::from_string(std::string_view text) {
    bitstream out(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        UHD_REQUIRE(c == '0' || c == '1', "bitstream string must contain only '0'/'1'");
        if (c == '1') out.words_[i / word_bits] |= std::uint64_t{1} << (i % word_bits);
    }
    return out;
}

// uhd-lint: test-reference test_unary's per-bit min/max reference reads it
bool bitstream::bit(std::size_t i) const {
    UHD_REQUIRE(i < size_, "bit index out of range");
    return (words_[i / word_bits] >> (i % word_bits)) & 1u;
}

void bitstream::set_bit(std::size_t i, bool value) {
    UHD_REQUIRE(i < size_, "bit index out of range");
    const std::uint64_t mask = std::uint64_t{1} << (i % word_bits);
    if (value) {
        words_[i / word_bits] |= mask;
    } else {
        words_[i / word_bits] &= ~mask;
    }
}

std::size_t bitstream::popcount() const noexcept {
    std::size_t ones = 0;
    for (const std::uint64_t w : words_) ones += static_cast<std::size_t>(popcount64(w));
    return ones;
}

// uhd-lint: test-reference test_unary's gate-level Fig. 4 comparator reduces with it
bool bitstream::all() const noexcept { return popcount() == size_; }

void bitstream::mask_tail() noexcept {
    if (words_.empty()) return;
    const std::size_t used = size_ % word_bits;
    if (used != 0) words_.back() &= low_mask(used);
}

// uhd-lint: test-reference test_bitstream's LengthMismatchThrows reaches it through & and |
void bitstream::check_same_size(const bitstream& rhs) const {
    UHD_REQUIRE(size_ == rhs.size_, "bitstream length mismatch");
}

// uhd-lint: test-reference test_unary checks the comparator's minimum (AND) with it
bitstream& bitstream::operator&=(const bitstream& rhs) {
    check_same_size(rhs);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= rhs.words_[w];
    return *this;
}

// uhd-lint: test-reference test_unary checks the comparator's maximum (OR) with it
bitstream& bitstream::operator|=(const bitstream& rhs) {
    check_same_size(rhs);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= rhs.words_[w];
    return *this;
}

// uhd-lint: test-reference test_unary's gate-level Fig. 4 comparator inverts with it
bitstream bitstream::operator~() const {
    bitstream out = *this;
    for (auto& w : out.words_) w = ~w;
    out.mask_tail();
    return out;
}

// uhd-lint: test-reference test_unary checks unary_encode's streams as text with it
std::string bitstream::to_string() const {
    std::string text(size_, '0');
    for (std::size_t i = 0; i < size_; ++i) {
        if ((words_[i / word_bits] >> (i % word_bits)) & 1u) text[i] = '1';
    }
    return text;
}

std::size_t hamming_distance(const bitstream& a, const bitstream& b) {
    UHD_REQUIRE(a.size() == b.size(), "bitstream length mismatch");
    std::size_t distance = 0;
    const auto wa = a.words();
    const auto wb = b.words();
    for (std::size_t w = 0; w < wa.size(); ++w)
        distance += static_cast<std::size_t>(popcount64(wa[w] ^ wb[w]));
    return distance;
}

} // namespace uhd::bs

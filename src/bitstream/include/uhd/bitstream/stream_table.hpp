// Unary Stream Table (UST) — the paper's Fig. 3(c) associative memory.
//
// uHD operates on short (N = 16) unary streams only, so instead of the
// conventional counter+comparator stream generator, all xi possible streams
// are pre-stored and fetched by their M = log2(xi) bit binary value. This
// class is the software model of that memory; its hardware cost twin lives
// in uhd::hw.
#ifndef UHD_BITSTREAM_STREAM_TABLE_HPP
#define UHD_BITSTREAM_STREAM_TABLE_HPP

#include <cstddef>
#include <vector>

#include "uhd/bitstream/unary.hpp"

namespace uhd::bs {

/// Pre-stored table of all thermometer streams U0 .. U(xi-1) of length N.
class unary_stream_table {
public:
    /// Build a table with `levels` entries of `stream_length`-bit streams.
    /// Entry q is the thermometer code of value q, so `levels - 1` must not
    /// exceed `stream_length`.
    unary_stream_table(std::size_t levels, std::size_t stream_length,
                       unary_alignment align = unary_alignment::ones_trailing);

    /// Number of entries (xi).
    [[nodiscard]] std::size_t levels() const noexcept { return table_.size(); }

    /// Length N of every stored stream.
    [[nodiscard]] std::size_t stream_length() const noexcept { return stream_length_; }

    /// Alignment convention of the stored streams.
    [[nodiscard]] unary_alignment alignment() const noexcept { return align_; }

    /// Fetch stream Uq (the associative-memory lookup); throws when q >= levels.
    [[nodiscard]] const bitstream& fetch(std::size_t q) const;

    /// Heap footprint of the whole table (Table I memory accounting).
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

private:
    std::size_t stream_length_;
    unary_alignment align_;
    std::vector<bitstream> table_;
};

} // namespace uhd::bs

#endif // UHD_BITSTREAM_STREAM_TABLE_HPP

// Unary Stream Table (UST) — the paper's Fig. 3(c) associative memory.
//
// uHD operates on short (N = 16) unary streams only, so instead of the
// conventional counter+comparator stream generator, all xi possible streams
// are pre-stored and fetched by their M = log2(xi) bit binary value. This
// class is the software model of that memory, which the datapath simulator
// (uhd::sim::uhd_datapath_sim) fetches from; its hardware cost twin lives
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
    /// Entry q is the ones-trailing thermometer code of value q (Fig. 4's
    /// convention), so `levels - 1` must not exceed `stream_length`.
    unary_stream_table(std::size_t levels, std::size_t stream_length);

    /// Fetch stream Uq (the associative-memory lookup); throws when q >= levels.
    [[nodiscard]] const bitstream& fetch(std::size_t q) const;

private:
    std::vector<bitstream> table_;
};

} // namespace uhd::bs

#endif // UHD_BITSTREAM_STREAM_TABLE_HPP

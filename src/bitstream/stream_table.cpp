#include "uhd/bitstream/stream_table.hpp"

#include "uhd/common/error.hpp"

namespace uhd::bs {

unary_stream_table::unary_stream_table(std::size_t levels, std::size_t stream_length) {
    UHD_REQUIRE(levels >= 1, "UST needs at least one level");
    UHD_REQUIRE(levels - 1 <= stream_length,
                "UST levels exceed what stream_length bits can encode");
    table_.reserve(levels);
    for (std::size_t q = 0; q < levels; ++q) {
        table_.push_back(unary_encode(q, stream_length));
    }
}

const bitstream& unary_stream_table::fetch(std::size_t q) const {
    UHD_REQUIRE(q < table_.size(), "UST index out of range");
    return table_[q];
}

} // namespace uhd::bs

#include "uhd/bitstream/stream_table.hpp"

#include "uhd/common/error.hpp"

namespace uhd::bs {

unary_stream_table::unary_stream_table(std::size_t levels, std::size_t stream_length,
                                       unary_alignment align)
    : stream_length_(stream_length), align_(align) {
    UHD_REQUIRE(levels >= 1, "UST needs at least one level");
    UHD_REQUIRE(levels - 1 <= stream_length,
                "UST levels exceed what stream_length bits can encode");
    table_.reserve(levels);
    for (std::size_t q = 0; q < levels; ++q) {
        table_.push_back(unary_encode(q, stream_length, align));
    }
}

const bitstream& unary_stream_table::fetch(std::size_t q) const {
    UHD_REQUIRE(q < table_.size(), "UST index out of range");
    return table_[q];
}

std::size_t unary_stream_table::memory_bytes() const noexcept {
    std::size_t bytes = table_.capacity() * sizeof(bitstream);
    for (const auto& s : table_) bytes += s.memory_bytes();
    return bytes;
}

} // namespace uhd::bs

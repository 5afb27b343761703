// Bit-serial functional simulation of the uHD datapath (paper Fig. 5).
//
// For every hypervector dimension the simulator fetches the pixel's unary
// data stream and the Sobol scalar's unary stream from the Unary Stream
// Table (UST, Fig. 3(c)), runs the Fig. 4 comparator gate-for-gate, and
// feeds the resulting bit into the popcount binarizer with its
// masking-logic threshold. This is the library's one gate-level datapath:
// the encoder's paths evaluate the comparator as the integer compare
// q >= S, and the emitted image hypervector is proven (by tests)
// bit-identical to the fast uhd_encoder::encode_sign() path. The collected
// event counts drive the uhd::hw energy model for the per-image rows of
// Table II.
#ifndef UHD_SIM_UHD_DATAPATH_HPP
#define UHD_SIM_UHD_DATAPATH_HPP

#include <cstdint>
#include <span>

#include "uhd/bitstream/stream_table.hpp"
#include "uhd/core/binarizer.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/sim/events.hpp"

namespace uhd::sim {

/// Cycle-semantics simulator of the Fig. 5 uHD pipeline.
class uhd_datapath_sim {
public:
    /// Bind to an encoder (its Sobol bank is the simulated BRAM) and build
    /// the UST from its configuration: quant_levels streams of
    /// stream_length() bits.
    explicit uhd_datapath_sim(const core::uhd_encoder& encoder);

    /// Run one image through the pipeline; returns the binarized image
    /// hypervector and, when `events` is non-null, accumulates datapath
    /// event counts into it.
    [[nodiscard]] hdc::hypervector run(std::span<const std::uint8_t> image,
                                       event_counts* events = nullptr) const;

private:
    const core::uhd_encoder* encoder_;
    bs::unary_stream_table ust_;
};

} // namespace uhd::sim

#endif // UHD_SIM_UHD_DATAPATH_HPP

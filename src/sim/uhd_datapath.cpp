#include "uhd/sim/uhd_datapath.hpp"

#include "uhd/bitstream/unary.hpp"
#include "uhd/common/error.hpp"

namespace uhd::sim {

uhd_datapath_sim::uhd_datapath_sim(const core::uhd_encoder& encoder)
    : encoder_(&encoder),
      ust_(encoder.config().quant_levels, encoder.config().stream_length()) {}

hdc::hypervector uhd_datapath_sim::run(std::span<const std::uint8_t> image,
                                       event_counts* events) const {
    UHD_REQUIRE(image.size() == encoder_->pixels(), "image size mismatch");
    const std::size_t dim = encoder_->dim();
    const std::size_t pixels = encoder_->pixels();

    // The mean_intensity policy loads the threshold register from the
    // image's expected popcount; half_inputs hard-wires ceil(H/2).
    const std::int32_t tau2 = encoder_->doubled_threshold(image);
    const std::size_t tob =
        static_cast<std::size_t>((tau2 + 1) / 2) == 0 ? 1
                                                      : static_cast<std::size_t>((tau2 + 1) / 2);

    event_counts local;
    bs::bitstream bits(dim);

    // Dimension-major traversal: one popcount/binarize pass per dimension,
    // pixels streamed bit-serially (Fig. 5's red L traversal).
    for (std::size_t d = 0; d < dim; ++d) {
        core::popcount_binarizer binarizer(pixels, tob);
        for (std::size_t p = 0; p < pixels; ++p) {
            // Data stream fetch (register read + UST lookup).
            const std::uint8_t q = encoder_->quantize_intensity(image[p]);
            const bs::bitstream& data_stream = ust_.fetch(q);
            local.reg_scalar_reads += 1;
            local.ust_fetches += 1;

            // Sobol scalar fetch (BRAM read + UST lookup).
            const std::uint8_t s = encoder_->threshold(p, d);
            const bs::bitstream& sobol_stream = ust_.fetch(s);
            local.bram_scalar_reads += 1;
            local.ust_fetches += 1;

            // Fig. 4 unary comparator.
            const bool level_bit = bs::unary_compare_geq(data_stream, sobol_stream);
            local.comparator_ops += 1;

            if (level_bit) local.counter_increments += 1;
            binarizer.feed(level_bit);
            local.cycles += 1;
        }
        if (binarizer.sign_bit()) {
            local.sign_latches += 1;
        } else {
            bits.set_bit(d, true); // below threshold: -1
        }
    }

    if (events != nullptr) *events += local;
    return hdc::hypervector(std::move(bits));
}

} // namespace uhd::sim

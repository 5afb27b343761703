#include "uhd/hdc/trainer.hpp"

#include "uhd/common/simd.hpp" // UHD_SCALAR_REFERENCE, UHD_NOVECTOR_LOOP

namespace uhd::hdc::detail {
namespace {

// Kept scalar: vectorized, the table lookups become emulated gathers (no
// gather instruction in the portable ISA), which ran the pass 1.7-3x slower.
template <std::size_t Pairs>
UHD_SCALAR_REFERENCE void add_lookups(const std::uint8_t* const* rows,
                                      const std::uint64_t* luts, std::size_t lut_words,
                                      std::uint64_t* sums, std::size_t dim) noexcept {
    static_assert(histogram_group_pixels == 4);
    const std::uint8_t* r0 = rows[0];
    const std::uint8_t* r1 = rows[1];
    const std::uint8_t* r2 = rows[2];
    const std::uint8_t* r3 = rows[3];
    const std::uint64_t* l0 = luts;
    const std::uint64_t* l1 = luts + lut_words;
    const std::uint64_t* l2 = luts + 2 * lut_words;
    const std::uint64_t* l3 = luts + 3 * lut_words;
    UHD_NOVECTOR_LOOP
    for (std::size_t d = 0; d < dim; ++d) {
        const std::uint64_t* e0 = l0 + static_cast<std::size_t>(r0[d]) * Pairs;
        const std::uint64_t* e1 = l1 + static_cast<std::size_t>(r1[d]) * Pairs;
        const std::uint64_t* e2 = l2 + static_cast<std::size_t>(r2[d]) * Pairs;
        const std::uint64_t* e3 = l3 + static_cast<std::size_t>(r3[d]) * Pairs;
        std::uint64_t* sum = sums + d * Pairs;
        for (std::size_t k = 0; k < Pairs; ++k) sum[k] += (e0[k] + e1[k]) + (e2[k] + e3[k]);
    }
}

} // namespace

void add_threshold_lookups(std::span<const std::uint8_t* const, histogram_group_pixels> rows,
                           const std::uint64_t* luts, std::size_t levels, std::size_t pairs,
                           std::uint64_t* sums, std::size_t dim) noexcept {
    const std::size_t lut_words = levels * pairs;
    switch (pairs) {
    case 1: add_lookups<1>(rows.data(), luts, lut_words, sums, dim); break;
    case 2: add_lookups<2>(rows.data(), luts, lut_words, sums, dim); break;
    case 3: add_lookups<3>(rows.data(), luts, lut_words, sums, dim); break;
    default: add_lookups<4>(rows.data(), luts, lut_words, sums, dim); break;
    }
}

} // namespace uhd::hdc::detail

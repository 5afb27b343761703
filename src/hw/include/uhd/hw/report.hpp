// Design-point cost assemblies: composes the Fig. 3-5 modules into the
// quantities the paper reports — the three in-text design checkpoints and
// the per-hypervector / per-image energy and area-delay rows of Table II.
//
// Conventions (mirroring the paper's accounting):
//  * "per HV" is the cost of generating one level hypervector of D bits
//    for one pixel (plus, for the baseline, the position hypervector and
//    the binding XOR that uHD eliminates).
//  * "per image" multiplies by H pixels and adds the accumulate-and-
//    binarize stage across D dimensions.
//  * The baseline is credited with a single generation pass (i = 1), as in
//    the paper's "fair comparison" note; the iterative search multiplies
//    its generation energy by i (exposed as baseline_iterations).
#ifndef UHD_HW_REPORT_HPP
#define UHD_HW_REPORT_HPP

#include <cstddef>

#include "uhd/hw/modules.hpp"

namespace uhd::hw {

/// Parameters of one hardware design point.
struct design_point {
    std::size_t dim = 1024;        ///< hypervector dimension D
    std::size_t pixels = 784;      ///< image size H (28x28)
    unsigned quant_levels = 16;    ///< xi (uHD scalar quantization)
    unsigned data_bits = 8;        ///< baseline intensity precision n
    std::size_t baseline_iterations = 1; ///< generation passes credited
};

/// Aggregated cost of one design at one point.
struct cost_summary {
    double energy_pj = 0.0;      ///< switching energy per unit of work
    double area_um2 = 0.0;       ///< placed cell + macro area
    double delay_ps = 0.0;       ///< critical-path delay
    /// Area x delay in m^2 * s (the unit Table II uses).
    [[nodiscard]] double area_delay_m2s() const noexcept {
        return area_um2 * 1e-12 * delay_ps * 1e-12;
    }
};

/// Cost model over a fixed cell library.
class hdc_cost_model {
public:
    explicit hdc_cost_model(const cell_library& library = cell_library::generic_45nm());

    // --- checkpoint 1: generating one bit of a hypervector operand stream --
    /// uHD: associative UST fetch (decoder + ROM read), amortized per bit.
    [[nodiscard]] double uhd_bitgen_energy_fj(const design_point& p) const;
    /// Baseline: conventional counter+comparator generator, per output bit.
    [[nodiscard]] double baseline_bitgen_energy_fj(const design_point& p) const;

    // --- checkpoint 2: the generation comparator, per hypervector ----------
    /// uHD: Fig. 4 unary comparator, D comparisons.
    [[nodiscard]] double uhd_comparator_energy_pj_per_hv(const design_point& p) const;
    /// Baseline: M-bit binary comparators for P and L, D comparisons each.
    [[nodiscard]] double baseline_comparator_energy_pj_per_hv(const design_point& p) const;

    // --- checkpoint 3: accumulate-and-binarize, per image feature ----------
    /// uHD: popcount + hard-wired masking logic, D dimensions per feature.
    [[nodiscard]] double uhd_accbin_energy_pj_per_feature(const design_point& p) const;
    /// Baseline: popcount + subtractor stage, D dimensions per feature.
    [[nodiscard]] double baseline_accbin_energy_pj_per_feature(const design_point& p) const;

    // --- Table II rows ------------------------------------------------------
    [[nodiscard]] cost_summary uhd_per_hv(const design_point& p) const;
    [[nodiscard]] cost_summary baseline_per_hv(const design_point& p) const;
    [[nodiscard]] cost_summary uhd_per_image(const design_point& p) const;
    [[nodiscard]] cost_summary baseline_per_image(const design_point& p) const;

    /// Whole-system energy ratio baseline/uHD per image (Table III's
    /// "energy efficiency" for this work).
    [[nodiscard]] double system_efficiency_ratio(const design_point& p) const;

private:
    const cell_library* library_;
};

} // namespace uhd::hw

#endif // UHD_HW_REPORT_HPP

// Generic 45 nm standard-cell library.
//
// Stand-in for the Synopsys Design Compiler + 45 nm cell library flow the
// paper uses for its energy/area/delay numbers (DESIGN.md §4.3). The values
// below are representative of open 45 nm libraries (NanGate FreePDK45
// class): area in um^2, switching energy per output transition in fJ at
// nominal voltage, and propagation delay in ps under a typical load.
// Absolute numbers differ from the paper's proprietary library; every
// comparison we reproduce is a ratio between designs evaluated under the
// *same* library, which is the quantity that transfers.
#ifndef UHD_HW_CELLS_HPP
#define UHD_HW_CELLS_HPP

#include <cstddef>

namespace uhd::hw {

/// Standard-cell types used by the paper's datapaths.
enum class cell_kind {
    inv,
    nand2,
    nor2,
    and2,
    or2,
    xor2,
    xnor2,
    mux2,
    half_adder,
    full_adder,
    dff,
    count_, // sentinel
};

/// Number of distinct cell kinds.
inline constexpr std::size_t cell_kind_count = static_cast<std::size_t>(cell_kind::count_);

/// Physical characteristics of one cell.
struct cell_spec {
    const char* name;
    double area_um2;    ///< placed area
    double energy_fj;   ///< energy per output transition
    double delay_ps;    ///< propagation delay, typical corner
    unsigned inputs;    ///< fan-in (for sanity checks)
};

/// Immutable library of cell specs.
class cell_library {
public:
    /// The generic 45 nm library described above.
    [[nodiscard]] static const cell_library& generic_45nm();

    /// Spec for one cell kind.
    [[nodiscard]] const cell_spec& spec(cell_kind kind) const;

private:
    explicit cell_library(const cell_spec* specs) {
        for (std::size_t i = 0; i < cell_kind_count; ++i) specs_[i] = specs[i];
    }

    cell_spec specs_[cell_kind_count];
};

} // namespace uhd::hw

#endif // UHD_HW_CELLS_HPP

// Hardware module cost model: a cell inventory plus an explicit critical
// path and a switching-activity factor. Energy per operation is
//   sum_cells (energy_per_transition * activity)
// area is the placed sum, and delay is the declared critical path — the
// same three quantities the paper reports from synthesis.
#ifndef UHD_HW_MODULE_HPP
#define UHD_HW_MODULE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "uhd/hw/cells.hpp"

namespace uhd::hw {

/// Cell inventory of a module (counts per cell kind).
class cell_counts {
public:
    /// Add `count` cells of `kind`.
    void add(cell_kind kind, std::size_t count = 1);

    /// Add another inventory `times` times (hierarchical composition).
    void add(const cell_counts& other, std::size_t times = 1);

    /// Count of one cell kind.
    [[nodiscard]] std::size_t count(cell_kind kind) const;

    /// Total number of cells.
    [[nodiscard]] std::size_t total() const noexcept;

    /// Placed area under `library`.
    [[nodiscard]] double area_um2(const cell_library& library) const;

    /// Energy if every cell toggled once (activity 1.0), in fJ.
    [[nodiscard]] double full_toggle_energy_fj(const cell_library& library) const;

private:
    std::array<std::size_t, cell_kind_count> counts_{};
};

/// A named module with inventory, critical path, and default activity.
struct hw_module {
    std::string name;
    cell_counts cells;
    std::vector<cell_kind> critical_path; ///< cell kinds traversed on the slow path
    double activity = 0.5;                ///< avg fraction of cells toggling per op

    /// Placed area.
    [[nodiscard]] double area_um2(const cell_library& library) const {
        return cells.area_um2(library);
    }

    /// Critical-path delay in ps.
    [[nodiscard]] double delay_ps(const cell_library& library) const;

    /// Energy per operation in fJ under the module's activity (optionally
    /// scaled, e.g. by measured toggle rates from the datapath simulator).
    [[nodiscard]] double energy_per_op_fj(const cell_library& library,
                                          double activity_scale = 1.0) const {
        return cells.full_toggle_energy_fj(library) * activity * activity_scale;
    }
};

/// Memory macro model (BRAM block or register-file bank, Fig. 3(a)).
struct memory_model {
    std::string name;
    std::size_t bits = 0;
    double read_energy_fj_per_bit = 0.0;
    double area_um2_per_bit = 0.0;
    double access_delay_ps = 0.0;

    /// BRAM-class macro (denser, higher per-access energy).
    [[nodiscard]] static memory_model bram(std::string name, std::size_t bits);

    /// Register/flip-flop bank (fast, cheap reads, large area).
    [[nodiscard]] static memory_model regfile(std::string name, std::size_t bits);

    [[nodiscard]] double read_energy_fj(std::size_t bits_read) const {
        return read_energy_fj_per_bit * static_cast<double>(bits_read);
    }
};

} // namespace uhd::hw

#endif // UHD_HW_MODULE_HPP

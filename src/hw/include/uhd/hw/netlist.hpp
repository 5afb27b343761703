// Gate-level netlist with event-driven evaluation and toggle counting.
//
// The inventory model in uhd/hw/module.hpp prices a module from cell counts
// and an assumed activity factor; this netlist simulator measures what the
// model assumes: build the actual gate graph, drive it with real operand
// sequences, and count output transitions per gate. No bench uses the
// measurements: checkpoint 2 in bench_checkpoints prices the comparators
// from the inventory model.
//
// uhd-lint: test-reference — test_netlist checks the Fig. 4 comparator and
// hw_module's gate counts against a real netlist built here.
#ifndef UHD_HW_NETLIST_HPP
#define UHD_HW_NETLIST_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "uhd/hw/cells.hpp"

namespace uhd::hw {

/// Node index inside a netlist (inputs and gate outputs share the space).
using net_id = std::uint32_t;

/// Combinational gate netlist with toggle accounting.
class netlist {
public:
    /// Create a primary input; returns its net id.
    net_id add_input(std::string name);

    /// Create a gate driven by `fanin` nets; returns its output net id.
    /// The gate kind must be combinational (no DFFs in this simulator).
    net_id add_gate(cell_kind kind, std::vector<net_id> fanin);

    /// Mark a net as a primary output (for reporting only).
    void mark_output(net_id net);

    /// Number of primary inputs / gates.
    [[nodiscard]] std::size_t input_count() const noexcept { return inputs_; }
    [[nodiscard]] std::size_t gate_count() const noexcept { return gates_.size(); }

    /// Evaluate the netlist for one input vector (size input_count()).
    /// Gate outputs that change relative to the previous evaluation are
    /// counted as toggles. Returns the value of `net` after evaluation.
    void evaluate(const std::vector<bool>& input_values);

    /// Value of any net after the last evaluate().
    [[nodiscard]] bool value(net_id net) const;

    /// Total gate-output toggles across all evaluate() calls (excludes the
    /// first evaluation, which establishes the reference state).
    [[nodiscard]] std::uint64_t toggle_count() const noexcept { return toggles_; }

    /// Evaluations performed so far.
    [[nodiscard]] std::uint64_t evaluations() const noexcept { return evaluations_; }

    /// Measured switching activity: average fraction of gates toggling per
    /// evaluation (after the reference evaluation).
    [[nodiscard]] double measured_activity() const;

    /// Energy per evaluation in fJ under `library`, using measured toggles.
    [[nodiscard]] double measured_energy_per_op_fj(const cell_library& library) const;

    /// Placed area of the gates.
    [[nodiscard]] double area_um2(const cell_library& library) const;

    /// Reset toggle statistics (keeps the structure and last values).
    void reset_stats() noexcept;

private:
    struct gate {
        cell_kind kind;
        std::vector<net_id> fanin;
        net_id output;
    };

    [[nodiscard]] static bool eval_gate(cell_kind kind, const std::vector<bool>& in);

    std::size_t inputs_ = 0;
    std::vector<gate> gates_;       // topological order by construction
    std::vector<bool> values_;      // current value per net
    std::vector<net_id> outputs_;
    std::uint64_t toggles_ = 0;
    std::uint64_t evaluations_ = 0;
    std::vector<std::uint64_t> per_gate_toggles_;
};

/// Build the Fig. 4 unary comparator as a real netlist: inputs are the two
/// N-bit thermometer operands (data first, Sobol second), the single output
/// is (data >= sobol).
struct unary_comparator_netlist {
    netlist circuit;
    std::vector<net_id> data_inputs;
    std::vector<net_id> sobol_inputs;
    net_id output;

    explicit unary_comparator_netlist(std::size_t stream_bits);

    /// Evaluate for two thermometer values (0..N); returns data >= sobol.
    bool compare(std::size_t data_value, std::size_t sobol_value);
};

/// Build an M-bit ripple magnitude comparator netlist (a >= b).
struct binary_comparator_netlist {
    netlist circuit;
    std::vector<net_id> a_inputs; // LSB first
    std::vector<net_id> b_inputs;
    net_id output;

    explicit binary_comparator_netlist(unsigned bits);

    /// Evaluate for two binary values; returns a >= b.
    bool compare(std::uint64_t a, std::uint64_t b);
};

} // namespace uhd::hw

#endif // UHD_HW_NETLIST_HPP

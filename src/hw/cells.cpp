#include "uhd/hw/cells.hpp"

#include "uhd/common/error.hpp"

namespace uhd::hw {

const cell_library& cell_library::generic_45nm() {
    // Representative NanGate FreePDK45-class values (typical corner).
    static const cell_spec specs[cell_kind_count] = {
        /* inv        */ {"INV_X1", 0.80, 0.7, 12.0, 1},
        /* nand2      */ {"NAND2_X1", 1.06, 0.8, 15.0, 2},
        /* nor2       */ {"NOR2_X1", 1.06, 0.8, 18.0, 2},
        /* and2       */ {"AND2_X1", 1.33, 1.0, 20.0, 2},
        /* or2        */ {"OR2_X1", 1.33, 1.0, 20.0, 2},
        /* xor2       */ {"XOR2_X1", 2.13, 1.6, 30.0, 2},
        /* xnor2      */ {"XNOR2_X1", 2.13, 1.6, 30.0, 2},
        /* mux2       */ {"MUX2_X1", 1.86, 1.3, 25.0, 3},
        /* half_adder */ {"HA_X1", 3.19, 2.2, 35.0, 2},
        /* full_adder */ {"FA_X1", 4.79, 3.2, 50.0, 3},
        /* dff        */ {"DFF_X1", 4.52, 2.5, 90.0, 2},
    };
    static const cell_library library(specs);
    return library;
}

const cell_spec& cell_library::spec(cell_kind kind) const {
    const auto index = static_cast<std::size_t>(kind);
    UHD_REQUIRE(index < cell_kind_count, "invalid cell kind");
    return specs_[index];
}

} // namespace uhd::hw

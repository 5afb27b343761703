#include "uhd/hw/module.hpp"

#include "uhd/common/error.hpp"

namespace uhd::hw {

void cell_counts::add(cell_kind kind, std::size_t count) {
    const auto index = static_cast<std::size_t>(kind);
    UHD_REQUIRE(index < cell_kind_count, "invalid cell kind");
    counts_[index] += count;
}

void cell_counts::add(const cell_counts& other, std::size_t times) {
    for (std::size_t i = 0; i < cell_kind_count; ++i) {
        counts_[i] += other.counts_[i] * times;
    }
}

// uhd-lint: test-reference test_hw checks module cell inventories with it
std::size_t cell_counts::count(cell_kind kind) const {
    const auto index = static_cast<std::size_t>(kind);
    UHD_REQUIRE(index < cell_kind_count, "invalid cell kind");
    return counts_[index];
}

std::size_t cell_counts::total() const noexcept {
    std::size_t sum = 0;
    for (const auto c : counts_) sum += c;
    return sum;
}

double cell_counts::area_um2(const cell_library& library) const {
    double area = 0.0;
    for (std::size_t i = 0; i < cell_kind_count; ++i) {
        area += static_cast<double>(counts_[i]) *
                library.spec(static_cast<cell_kind>(i)).area_um2;
    }
    return area;
}

double cell_counts::full_toggle_energy_fj(const cell_library& library) const {
    double energy = 0.0;
    for (std::size_t i = 0; i < cell_kind_count; ++i) {
        energy += static_cast<double>(counts_[i]) *
                  library.spec(static_cast<cell_kind>(i)).energy_fj;
    }
    return energy;
}

double hw_module::delay_ps(const cell_library& library) const {
    double delay = 0.0;
    for (const cell_kind kind : critical_path) delay += library.spec(kind).delay_ps;
    return delay;
}

memory_model memory_model::bram(std::string name, std::size_t bits) {
    memory_model m;
    m.name = std::move(name);
    m.bits = bits;
    m.read_energy_fj_per_bit = 2.0;  // block RAM access, amortized per bit
    m.area_um2_per_bit = 0.35;       // dense SRAM macro
    m.access_delay_ps = 450.0;
    return m;
}

memory_model memory_model::regfile(std::string name, std::size_t bits) {
    memory_model m;
    m.name = std::move(name);
    m.bits = bits;
    m.read_energy_fj_per_bit = 0.4;  // local register read (mux tree)
    m.area_um2_per_bit = 4.52;       // one DFF per bit
    m.access_delay_ps = 120.0;
    return m;
}

} // namespace uhd::hw

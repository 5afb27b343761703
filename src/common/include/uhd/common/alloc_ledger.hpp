// Memory footprint accounting for the Table I "dynamic memory" comparison.
//
// The paper reports the dynamic memory allocated by each encoding pipeline on
// an embedded target. Rather than interposing a global allocator (fragile,
// and it would also count incidental allocations of the harness), every
// sizeable structure in this library exposes `memory_bytes()`, and benches
// register those footprints in a labelled ledger which prints per-pipeline
// totals.
#ifndef UHD_COMMON_ALLOC_LEDGER_HPP
#define UHD_COMMON_ALLOC_LEDGER_HPP

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace uhd {

/// Labelled sum of data-structure footprints (bytes).
class alloc_ledger {
public:
    /// Record `bytes` under `label`; repeated labels accumulate.
    void add(std::string label, std::size_t bytes);

    /// Total bytes across all entries.
    [[nodiscard]] std::size_t total_bytes() const noexcept;

    /// Total expressed in KiB (rounded up), the unit Table I uses.
    [[nodiscard]] std::size_t total_kib() const noexcept;

private:
    std::vector<std::pair<std::string, std::size_t>> entries_;
};

} // namespace uhd

#endif // UHD_COMMON_ALLOC_LEDGER_HPP

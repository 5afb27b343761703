// Fixture: SEEDED VIOLATION — a portable TU bypassing the dispatch layer:
// it names the backend detail namespace / table accessor directly and
// repins the process-wide backend. dispatch-only must fire on both.
#include "uhd/common/kernels.hpp"

namespace uhd::kernels {
void force_backend(const char*);
}

namespace uhd::core {

std::uint64_t bad_reduce(const std::uint64_t* a, std::size_t n) {
    uhd::kernels::force_backend("swar");
    return uhd::kernels::detail::swar_table().beta(a, a, n);
}

void scan(const std::uint8_t* q, std::size_t n) { uhd::kernels::active().alpha(q, n); }

} // namespace uhd::core

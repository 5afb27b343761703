// Fixture: the library caller of every kernel slot, so this tree trips
// only the seeded parity violations.
#include "uhd/common/kernels.hpp"

namespace uhd::core {

void run(const std::uint8_t* q, const std::uint64_t* w, std::size_t n) {
    const kernels::kernel_table& k = kernels::active();
    k.alpha(q, n);
    (void)k.beta(w, w, n);
    k.geq_rematerialize_accumulate(nullptr, 0, nullptr, 0, nullptr);
}

} // namespace uhd::core

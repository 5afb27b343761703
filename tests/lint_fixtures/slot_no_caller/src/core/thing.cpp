// Fixture: the library calls only the `alpha` kernel slot.
#include "uhd/common/kernels.hpp"

namespace uhd::core {

void scan(const std::uint8_t* q, std::size_t n) { kernels::active().alpha(q, n); }

} // namespace uhd::core

// Fixture: the probe header's own TU, which does not count as a reach.
#include "uhd/core/probe.hpp"

namespace uhd::core {

std::size_t probe() { return 1; }

} // namespace uhd::core

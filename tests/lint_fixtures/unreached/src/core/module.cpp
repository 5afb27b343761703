// Fixture: linked by nothing, but its public header is marked: no finding.
#include "uhd/core/module.hpp"

namespace uhd::core {

int module_value() { return 4; }

} // namespace uhd::core

// Fixture: a header the example includes; it reaches stale.hpp through its
// own include, which counts.
#ifndef FIXTURE_UHD_CORE_THING_HPP
#define FIXTURE_UHD_CORE_THING_HPP

#include <cstddef>

#include "uhd/core/stale.hpp"

namespace uhd::core {

std::size_t count_things();

} // namespace uhd::core

#endif // FIXTURE_UHD_CORE_THING_HPP

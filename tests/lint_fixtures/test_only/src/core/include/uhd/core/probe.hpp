// Fixture: SEEDED VIOLATION — a header only its own TU and a test include,
// with no test-reference marker. test-only-header must fire at line 1.
#ifndef FIXTURE_UHD_CORE_PROBE_HPP
#define FIXTURE_UHD_CORE_PROBE_HPP

#include <cstddef>

namespace uhd::core {

std::size_t probe();

} // namespace uhd::core

#endif // FIXTURE_UHD_CORE_PROBE_HPP

// Fixture: a marked test reference that only a test includes: no finding.
//
// uhd-lint: test-reference — test_probe compares probe() against it.
#ifndef FIXTURE_UHD_CORE_REFERENCE_HPP
#define FIXTURE_UHD_CORE_REFERENCE_HPP

#include <cstddef>

namespace uhd::core {

inline std::size_t reference_probe() { return 1; }

} // namespace uhd::core

#endif // FIXTURE_UHD_CORE_REFERENCE_HPP

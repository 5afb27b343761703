// Fixture: SEEDED VIOLATION — a test-reference marker on a header that
// thing.hpp includes. test-only-header must fire on the marker line.
//
// uhd-lint: test-reference — once only test_probe used it.
#ifndef FIXTURE_UHD_CORE_STALE_HPP
#define FIXTURE_UHD_CORE_STALE_HPP

#include <cstddef>

namespace uhd::core {

inline std::size_t stale_count() { return 2; }

} // namespace uhd::core

#endif // FIXTURE_UHD_CORE_STALE_HPP

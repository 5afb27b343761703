// Fixture: a module kept whole as a test reference; its TU's functions and
// its own inline functions need no marker of their own.
//
// uhd-lint: test-reference — tests/test_thing.cpp compares against it.
#ifndef FIXTURE_UHD_CORE_MODULE_HPP
#define FIXTURE_UHD_CORE_MODULE_HPP

namespace uhd::core {

int module_value();

// Linked by nothing and unmarked, in a marked header: no finding.
inline int module_twice() { return 2 * module_value(); }

} // namespace uhd::core

#endif // FIXTURE_UHD_CORE_MODULE_HPP

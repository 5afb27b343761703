// Fixture: a module kept whole as a test reference; its TU's functions
// need no marker of their own.
//
// uhd-lint: test-reference — tests/test_thing.cpp compares against it.
#ifndef FIXTURE_UHD_CORE_MODULE_HPP
#define FIXTURE_UHD_CORE_MODULE_HPP

namespace uhd::core {

int module_value();

} // namespace uhd::core

#endif // FIXTURE_UHD_CORE_MODULE_HPP

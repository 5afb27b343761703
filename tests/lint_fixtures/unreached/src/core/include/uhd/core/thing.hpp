// Fixture: the functions of thing.cpp, one per unreached-function case, and
// one inline function per header case. libuhd.nm lists every inline
// function here as a W symbol located in this header.
#ifndef FIXTURE_UHD_CORE_THING_HPP
#define FIXTURE_UHD_CORE_THING_HPP

namespace uhd::core {

struct thing_options { // its implicit constructor sits here (line 9): skipped
    int scale = 1;
};

class thing {
public:
    thing() = default; // defaulted (line 15): skipped
    explicit thing(int value);
    // Linked by thing_demo: no finding.
    [[nodiscard]] int value() const noexcept { return value_; }
    // Linked by nothing and unmarked: a finding at this line (20).
    [[nodiscard]] int twice() const noexcept { return 2 * value_; }
    // Linked by nothing, and marked: no finding. The marker is a function
    // marker, not a header marker, so test-only-header does not read it.
    // uhd-lint: test-reference tests/test_thing.cpp compares twice() against it
    [[nodiscard]] int reference_twice() const noexcept { return value_ + value_; }
    // uhd-lint: test-reference tests/test_thing.cpp calls it
    // thing_demo links this function, so the marker (line 25) is stale.
    [[nodiscard]] int stale_value() const noexcept { return value_; }

private:
    int value_ = 0;
};

// No binary holds an always_inline function out of line: skipped.
[[gnu::always_inline]] inline int fold(int x) { return x ^ (x >> 1); }

// uhd-lint: test-reference tests/test_thing.cpp called orphan_twice()
// orphan_twice() was deleted, so this marker (line 36) sits above no
// library function: a stale marker too.
int probe();
int reference();
int stale();

} // namespace uhd::core

#endif // FIXTURE_UHD_CORE_THING_HPP

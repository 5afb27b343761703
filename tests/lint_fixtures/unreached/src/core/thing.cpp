// Fixture: libuhd.nm lists every function here; products.nm links the
// constructor (one of its two symbols) and stale().
#include "uhd/core/thing.hpp"

namespace uhd::core {

// Linked through one of its two symbols: no finding.
thing::thing(int value) : value_(value) {}

// Linked by nothing and unmarked: a finding at this line (11).
int probe() { return 1; }

// Linked by nothing, and marked: no finding.
// uhd-lint: test-reference tests/test_thing.cpp compares probe() against it
int reference() { return 2; }

// uhd-lint: test-reference tests/test_thing.cpp calls it
// The marker may sit anywhere in the comment lines above the definition;
// thing_demo links this function, so the marker (line 17) is stale.
int stale() { return 3; }

// uhd-lint: test-reference tests/test_thing.cpp called orphan()
// orphan() was deleted, so this marker (line 22) sits above no library
// function: a stale marker too.

} // namespace uhd::core

// Fixture: a non-test includer of uhd/core/thing.hpp, so the header is
// reached and test-only-header stays quiet in this tree.
#include "uhd/core/thing.hpp"

int main() { return 0; }

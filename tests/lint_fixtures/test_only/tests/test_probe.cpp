// Fixture: a test is the only includer of probe.hpp and reference.hpp.
#include "uhd/core/probe.hpp"
#include "uhd/core/reference.hpp"

int main() { return uhd::core::probe() == uhd::core::reference_probe() ? 0 : 1; }

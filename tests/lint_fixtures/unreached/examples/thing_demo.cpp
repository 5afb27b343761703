// Fixture: the product of this tree (products.nm lists its symbols).
#include "uhd/core/thing.hpp"

int main() { return uhd::core::thing(uhd::core::stale()).value(); }

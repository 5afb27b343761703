// Fixture: the product path of this tree; it includes thing.hpp only.
#include "uhd/core/thing.hpp"

int main() { return static_cast<int>(uhd::core::count_things()); }

// Fixture: the test that uses the marked functions and module.
#include "uhd/core/module.hpp"
#include "uhd/core/thing.hpp"

int main() {
    const uhd::core::thing t(uhd::core::module_twice());
    if (t.twice() != t.reference_twice()) return 1;
    return uhd::core::probe() < uhd::core::reference() + uhd::core::module_value() ? 0 : 1;
}

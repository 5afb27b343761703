// Fixture: the product of this tree (products.nm lists its symbols).
#include "uhd/core/thing.hpp"

int main() {
    const uhd::core::thing t(uhd::core::stale());
    return t.value() + t.stale_value();
}

// Fixture: SEEDED VIOLATION — the `beta` kernel slot is named only by this
// test (and by the backend TUs under src/common/). kernel-table-parity must
// fire on its kernel_table member: a slot only tests call has no library
// caller.
#include "uhd/common/kernels.hpp"

int main() {
    const std::uint64_t word = 0;
    return static_cast<int>(uhd::kernels::active().beta(&word, &word, 1));
}

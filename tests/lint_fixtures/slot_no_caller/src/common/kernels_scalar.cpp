// Fixture: pinned scalar oracle backend TU.
#include "uhd/common/kernels.hpp"

namespace uhd::kernels::detail {

namespace {

bool supported(int) { return true; }

void alpha(const std::uint8_t*, std::size_t) {}

std::uint64_t beta(const std::uint64_t*, const std::uint64_t*, std::size_t) {
    return 0;
}

constexpr kernel_table table{
    "scalar", supported,
    alpha,    beta,
};

} // namespace

const kernel_table& scalar_table() { return table; }

} // namespace uhd::kernels::detail

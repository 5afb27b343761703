// Fixture: miniature backend registry with the pinned scalar oracle only.
#include "uhd/common/kernels.hpp"

namespace uhd::kernels {

namespace detail {
const kernel_table& scalar_table();
} // namespace detail

const kernel_table& active() { return detail::scalar_table(); }

} // namespace uhd::kernels

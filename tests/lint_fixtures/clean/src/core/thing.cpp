// Fixture: a portable TU that (correctly) routes through the dispatch
// layer instead of naming any backend table.
#include "uhd/core/thing.hpp"

#include "uhd/common/kernels.hpp"

namespace uhd::core {

std::uint64_t reduce(const thing& t) {
    return kernels::active().beta(t.words.data(), t.words.data(),
                                  t.words.size());
}

void scan(const std::uint8_t* q, std::size_t n) { kernels::active().alpha(q, n); }

} // namespace uhd::core

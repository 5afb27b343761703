// Fixture: miniature kernel registry header. Mirrors the real
// uhd/common/kernels.hpp shape the kernel-table-parity rule parses.
#ifndef FIXTURE_UHD_COMMON_KERNELS_HPP
#define FIXTURE_UHD_COMMON_KERNELS_HPP

#include <cstddef>
#include <cstdint>

namespace uhd::kernels {

struct kernel_table {
    const char* name;
    bool (*supported)(int features);
    void (*alpha)(const std::uint8_t* q, std::size_t n);
    std::uint64_t (*beta)(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t n);
};

const kernel_table& active();

} // namespace uhd::kernels

#endif // FIXTURE_UHD_COMMON_KERNELS_HPP

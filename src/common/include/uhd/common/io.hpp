// Minimal binary serialization helpers (little-endian, versioned headers,
// CRC32C) used for model save/load.
#ifndef UHD_COMMON_IO_HPP
#define UHD_COMMON_IO_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <type_traits>
#include <vector>

namespace uhd::io {

/// Write a 32-bit magic + version header.
void write_header(std::ostream& os, std::uint32_t magic, std::uint32_t version);

/// Read and validate a header; throws uhd::error on magic mismatch or if the
/// stored version exceeds `max_version`. Returns the stored version.
std::uint32_t read_header(std::istream& is, std::uint32_t magic, std::uint32_t max_version);

void write_u32(std::ostream& os, std::uint32_t v);
void write_u64(std::ostream& os, std::uint64_t v);

std::uint32_t read_u32(std::istream& is);
std::uint64_t read_u64(std::istream& is);

/// CRC32C (Castagnoli) of `n` bytes, continued from `crc`, the CRC of the
/// bytes before them (0 for none): crc32c(crc32c(0, a), b) is the CRC of
/// a followed by b.
[[nodiscard]] std::uint32_t crc32c(std::uint32_t crc, const void* data,
                                   std::size_t n) noexcept;

/// Write a span of trivially-copyable elements (length-prefixed), straight
/// from the caller's storage — no intermediate copy.
template <typename T>
void write_pod_span(std::ostream& os, std::span<const T> v);

/// Read a vector of trivially-copyable elements written by write_pod_span.
/// Throws uhd::error, before allocating, when the stored element count
/// exceeds `max_count`. The vector grows with the bytes that arrive, not
/// with the stored count: a stream that ends early throws uhd::error after
/// allocating at most about twice what it held plus 1 MiB.
template <typename T>
std::vector<T> read_pod_vector(std::istream& is, std::size_t max_count);

// --- implementation of templates -----------------------------------------

void write_bytes(std::ostream& os, const void* data, std::size_t n);
void read_bytes(std::istream& is, void* data, std::size_t n);

template <typename T>
void write_pod_span(std::ostream& os, std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>, "POD serialization only");
    write_u64(os, static_cast<std::uint64_t>(v.size()));
    if (!v.empty()) write_bytes(os, v.data(), v.size() * sizeof(T));
}

void require_count(std::uint64_t count, std::size_t max_count);

template <typename T>
std::vector<T> read_pod_vector(std::istream& is, std::size_t max_count) {
    static_assert(std::is_trivially_copyable_v<T>, "POD serialization only");
    const std::uint64_t n = read_u64(is);
    require_count(n, max_count);
    // Each step reads at most max(1 MiB, what has arrived so far), so the
    // vector never outgrows the stream by more than one step, and a long
    // vector still costs O(n) copying in all.
    constexpr std::size_t min_step = std::max<std::size_t>(1, (std::size_t{1} << 20) / sizeof(T));
    std::vector<T> v;
    while (v.size() < n) {
        const std::size_t done = v.size();
        const std::size_t step =
            std::min(static_cast<std::size_t>(n) - done, std::max(min_step, done));
        v.reserve(done + step);
        v.resize(done + step);
        read_bytes(is, v.data() + done, step * sizeof(T));
    }
    return v;
}

} // namespace uhd::io

#endif // UHD_COMMON_IO_HPP

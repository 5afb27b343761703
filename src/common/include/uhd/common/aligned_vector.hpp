// Cache-line-aligned vector storage.
//
// The wide kernels stream the bit-plane threshold bank in 8-word (64-byte)
// chunks. On a 64-byte boundary every chunk is one cache line; off it, every
// chunk load touches two. std::allocator only promises
// alignof(std::max_align_t) (16 bytes), so the bank's offset used to follow
// the heap's history: a change to which small blocks the classifier
// allocates moved the serving benchmark's bank from 0 to 16 mod 64 and cost
// its raw-query server 23% more CPU per request (4-vCPU AVX-512 VM). A
// cache_aligned_vector makes the placement a property of the type.
#ifndef UHD_COMMON_ALIGNED_VECTOR_HPP
#define UHD_COMMON_ALIGNED_VECTOR_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <vector>

namespace uhd {

/// Alignment of cache_aligned_vector storage: one x86-64 cache line.
inline constexpr std::size_t cache_line_bytes = 64;

/// Allocator whose blocks start on a cache-line boundary. Each block is
/// one plain operator new of the payload plus a cache line, with the
/// block's own address stored just before the aligned start. Aligned
/// operator new is avoided on purpose: glibc serves it through memalign,
/// and the D = 8192 serving benchmark, whose server builds its encoder
/// nine times, then peaked at 28.0 MiB RSS instead of 16.3 MiB; plain
/// blocks of one size reuse each other's freed space.
template <typename T>
struct cache_line_allocator {
    using value_type = T;

    cache_line_allocator() noexcept = default;
    template <typename U>
    cache_line_allocator(const cache_line_allocator<U>& /*other*/) noexcept {}

    [[nodiscard]] T* allocate(std::size_t n) {
        constexpr std::size_t slack = cache_line_bytes + sizeof(void*);
        if (n > (std::numeric_limits<std::size_t>::max() - slack) / sizeof(T)) {
            throw std::bad_array_new_length();
        }
        void* block = ::operator new(n * sizeof(T) + slack);
        const std::uintptr_t start =
            (reinterpret_cast<std::uintptr_t>(block) + slack) &
            ~std::uintptr_t{cache_line_bytes - 1};
        std::memcpy(reinterpret_cast<void*>(start - sizeof(void*)), &block,
                    sizeof(void*));
        return reinterpret_cast<T*>(start);
    }

    void deallocate(T* p, std::size_t /*n*/) noexcept {
        void* block = nullptr;
        std::memcpy(&block, reinterpret_cast<char*>(p) - sizeof(void*), sizeof(void*));
        ::operator delete(block);
    }
};

template <typename T, typename U>
[[nodiscard]] bool operator==(const cache_line_allocator<T>& /*a*/,
                              const cache_line_allocator<U>& /*b*/) noexcept {
    return true; // stateless: any instance frees any other's blocks
}

/// std::vector whose data() is cache-line aligned.
template <typename T>
using cache_aligned_vector = std::vector<T, cache_line_allocator<T>>;

} // namespace uhd

#endif // UHD_COMMON_ALIGNED_VECTOR_HPP

// Packed associative memory over binarized class hypervectors — the
// software analogue of the combinational associative-memory inference
// stage of dense binary HDC hardware (Schmuck et al.): all class vectors
// are stored contiguously row-major as 64-bit words, and a query is
// answered with one pass of XOR + popcount per word, returning the class
// with the minimum Hamming distance.
//
// Ties resolve to the lowest class index, which is bit-identical to the
// first-wins argmax of the per-class cosine scan it replaces (cosine is
// strictly decreasing in Hamming distance for fixed D).
#ifndef UHD_HDC_CLASS_MEMORY_HPP
#define UHD_HDC_CLASS_MEMORY_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "uhd/hdc/hypervector.hpp"

namespace uhd::hdc {

/// Row-major packed storage of binarized class hypervectors with a
/// Hamming-argmin associative search.
class class_memory {
public:
    class_memory() = default;

    /// Memory for `classes` rows of `dim` packed sign bits each (all zero,
    /// i.e. every class all-(+1), until store()d).
    class_memory(std::size_t classes, std::size_t dim);

    [[nodiscard]] std::size_t classes() const noexcept { return classes_; }
    [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

    /// 64-bit words per class row (ceil(dim / 64)).
    [[nodiscard]] std::size_t words_per_class() const noexcept { return words_; }

    /// Overwrite row `c` with the packed bits of a binarized hypervector.
    void store(std::size_t c, const hypervector& hv);

    /// Packed row of class `c` (tail bits beyond dim() are zero).
    [[nodiscard]] std::span<const std::uint64_t> row(std::size_t c) const;

    /// All rows back-to-back (classes() * words_per_class() words).
    [[nodiscard]] std::span<const std::uint64_t> rows() const noexcept {
        return {rows_.data(), rows_.size()};
    }

    /// Index of the row nearest to the packed query (minimum Hamming
    /// distance, lowest index on ties). `query_words` must hold
    /// words_per_class() words with tail bits zero. When `distance_out`
    /// is non-null, receives the winning distance. A one-query
    /// nearest_block() call: there is no separate single-query kernel.
    [[nodiscard]] std::size_t nearest(std::span<const std::uint64_t> query_words,
                                      std::uint64_t* distance_out = nullptr) const;

    /// Convenience overload over a packed hypervector query.
    [[nodiscard]] std::size_t nearest(const hypervector& query,
                                      std::uint64_t* distance_out = nullptr) const;

    /// Answer a block of `n_queries` packed queries (words_per_class()
    /// words each, back-to-back in `queries_words`) in one register-blocked
    /// pass over the class rows (kernels::hamming_block_argmin2_prefix over
    /// the full row width). out[q] is the first-wins Hamming argmin of
    /// query q whatever the block size — the blocking only changes how many
    /// queries share each streamed row. When `distances_out` is non-null it
    /// receives the n_queries winning distances.
    void nearest_block(std::span<const std::uint64_t> queries_words,
                       std::size_t n_queries, std::span<std::size_t> out,
                       std::uint64_t* distances_out = nullptr) const;

    /// Payload equality: same geometry and identical packed rows. The tail
    /// bits beyond dim() are zero by construction (store() copies from
    /// hypervectors holding the bitstream tail invariant), so word-wise
    /// comparison is exact bit-level row equality. This is what makes a
    /// class_memory a snapshot-friendly value type: copy = one vector copy,
    /// equality = one vector compare.
    [[nodiscard]] bool operator==(const class_memory& other) const noexcept;

    /// Heap footprint of the packed rows (Table I memory accounting).
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return rows_.capacity() * sizeof(std::uint64_t);
    }

private:
    std::size_t classes_ = 0;
    std::size_t dim_ = 0;
    std::size_t words_ = 0;
    std::vector<std::uint64_t> rows_;
};

} // namespace uhd::hdc

#endif // UHD_HDC_CLASS_MEMORY_HPP

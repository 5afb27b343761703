// Similarity metrics for inference (the paper uses cosine similarity
// between the test hypervector and each class hypervector).
#ifndef UHD_HDC_SIMILARITY_HPP
#define UHD_HDC_SIMILARITY_HPP

#include <cstdint>
#include <span>

#include "uhd/hdc/hypervector.hpp"

namespace uhd::hdc {

/// Cosine similarity of two binarized hypervectors, in [-1, 1].
/// For bipolar vectors this equals dot / D.
[[nodiscard]] double cosine(const hypervector& a, const hypervector& b);

/// Cosine similarity of two integer accumulators.
/// Returns 0 when either vector has zero norm.
[[nodiscard]] double cosine(std::span<const std::int32_t> a,
                            std::span<const std::int32_t> b);

/// Cosine similarity of a binarized query against an integer class vector.
[[nodiscard]] double cosine(const hypervector& query, std::span<const std::int32_t> cls);

} // namespace uhd::hdc

#endif // UHD_HDC_SIMILARITY_HPP

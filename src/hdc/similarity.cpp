#include "uhd/hdc/similarity.hpp"

#include <cmath>

#include "uhd/common/error.hpp"
#include "uhd/common/simd.hpp"

namespace uhd::hdc {

double cosine(const hypervector& a, const hypervector& b) {
    UHD_REQUIRE(a.dim() == b.dim() && a.dim() > 0, "hypervector dimension mismatch");
    // Bipolar vectors have norm sqrt(D), so cosine = dot / D.
    return static_cast<double>(a.dot(b)) / static_cast<double>(a.dim());
}

double cosine(std::span<const std::int32_t> a, std::span<const std::int32_t> b) {
    UHD_REQUIRE(a.size() == b.size() && !a.empty(), "accumulator dimension mismatch");
    double dot = 0.0;
    double na = 0.0;
    double nb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double x = static_cast<double>(a[i]);
        const double y = static_cast<double>(b[i]);
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if (na <= 0.0 || nb <= 0.0) return 0.0;
    return dot / std::sqrt(na * nb);
}

double cosine(const hypervector& query, std::span<const std::int32_t> cls) {
    UHD_REQUIRE(query.dim() == cls.size() && query.dim() > 0,
                "query/class dimension mismatch");
    // The query stays packed: with bit 1 = -1, the signed dot product is
    // sum(cls) - 2 * (sum of cls over the set bits), computed word-at-a-time
    // instead of through per-element bit extraction. The linear sums fit
    // int64 for any D; the squared norm does not (D * INT32_MAX^2), so it
    // accumulates in double like the other cosine overloads.
    std::int64_t total = 0;
    double norm = 0.0;
    for (const std::int32_t y : cls) {
        total += y;
        norm += static_cast<double>(y) * static_cast<double>(y);
    }
    if (norm <= 0.0) return 0.0;
    const std::int64_t negatives =
        simd::masked_sum_i32(query.bits().words().data(), cls.data(), cls.size());
    const std::int64_t dot = total - 2 * negatives;
    return static_cast<double>(dot) /
           (std::sqrt(norm) *
            std::sqrt(static_cast<double>(query.dim())));
}

double hamming_similarity(const hypervector& a, const hypervector& b) {
    UHD_REQUIRE(a.dim() == b.dim() && a.dim() > 0, "hypervector dimension mismatch");
    const double distance = static_cast<double>(bs::hamming_distance(a.bits(), b.bits()));
    return 1.0 - distance / static_cast<double>(a.dim());
}

} // namespace uhd::hdc

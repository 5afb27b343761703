#include "uhd/hdc/inference_snapshot.hpp"

#include <cmath>

#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"

namespace uhd::hdc {

inference_snapshot::inference_snapshot(query_mode mode, std::size_t classes,
                                       std::size_t dim)
    : mode_(mode), mem_(classes, dim) {
    if (mode_ == query_mode::integer) {
        values_.assign(classes * dim, 0);
        norm_sq_.assign(classes, 0.0);
    }
}

// uhd-lint: test-reference test_inference_snapshot compares integer class rows with it
std::span<const std::int32_t> inference_snapshot::class_values(std::size_t c) const {
    UHD_REQUIRE(c < classes(), "class index out of range");
    if (mode_ != query_mode::integer) return {};
    return {values_.data() + c * dim(), dim()};
}

void inference_snapshot::store_class_row(std::size_t c,
                                         std::span<const std::int32_t> values) {
    mem_.store_signs(c, values); // bounds/dim checked by class_memory
    ++version_;
}

void inference_snapshot::store_class_values(std::size_t c,
                                            std::span<const std::int32_t> values) {
    UHD_REQUIRE(c < classes(), "class index out of range");
    if (mode_ != query_mode::integer) return;
    UHD_REQUIRE(values.size() == dim(), "class values dimension mismatch");
    std::copy(values.begin(), values.end(),
              values_.begin() + static_cast<std::ptrdiff_t>(c * dim()));
    norm_sq_[c] = kernels::sum_squares_i32(values.data(), values.size());
    ++version_;
}

namespace {

/// Sign-binarize an encoded query into per-thread packed scratch — the one
/// binarize step shared by the full-scan and cascade read paths, so a
/// packing change can never drift between them (their bit-identity is a
/// tested contract). The scratch is thread_local: concurrent readers
/// sharing one snapshot never share it.
std::span<const std::uint64_t> binarize_query(
    std::span<const std::int32_t> encoded) {
    static thread_local std::vector<std::uint64_t> query_words;
    query_words.resize(kernels::sign_words(encoded.size()));
    kernels::sign_binarize(encoded.data(), encoded.size(), query_words.data());
    return {query_words.data(), query_words.size()};
}

/// Sign-binarize a whole query block into per-thread packed scratch (one
/// row of sign_words(dim) words per query, the same packing as
/// binarize_query) — the block paths' shared binarize step. Distinct
/// scratch from binarize_query so a block call never clobbers a
/// single-query caller's words on the same thread.
std::span<const std::uint64_t> binarize_block(
    std::span<const std::int32_t> encoded, std::size_t n_queries,
    std::size_t dim) {
    static thread_local std::vector<std::uint64_t> block_words;
    const std::size_t words = kernels::sign_words(dim);
    block_words.resize(n_queries * words);
    for (std::size_t q = 0; q < n_queries; ++q) {
        kernels::sign_binarize(encoded.data() + q * dim, dim,
                               block_words.data() + q * words);
    }
    return {block_words.data(), block_words.size()};
}

} // namespace

std::size_t inference_snapshot::predict_encoded(
    std::span<const std::int32_t> encoded) const {
    UHD_REQUIRE(encoded.size() == dim(), "encoded size mismatch");
    if (mode_ == query_mode::integer) {
        const double query_norm_sq =
            kernels::sum_squares_i32(encoded.data(), encoded.size());
        std::size_t best = 0;
        double best_similarity = -2.0;
        for (std::size_t c = 0; c < classes(); ++c) {
            double similarity = 0.0; // zero-norm convention of cosine()
            if (query_norm_sq > 0.0 && norm_sq_[c] > 0.0) {
                similarity = kernels::dot_i32(encoded.data(),
                                              values_.data() + c * dim(),
                                              encoded.size()) /
                             std::sqrt(query_norm_sq * norm_sq_[c]);
            }
            if (similarity > best_similarity) {
                best_similarity = similarity;
                best = c;
            }
        }
        return best;
    }
    return mem_.nearest(binarize_query(encoded));
}

std::size_t inference_snapshot::predict_dynamic_encoded(
    std::span<const std::int32_t> encoded, const dynamic_query_policy& policy,
    dynamic_query_stats* stats) const {
    UHD_REQUIRE(encoded.size() == dim(), "encoded size mismatch");
    return policy.answer(mem_, binarize_query(encoded), stats);
}

void inference_snapshot::predict_block(std::span<const std::int32_t> encoded,
                                       std::size_t n_queries,
                                       std::span<std::size_t> out) const {
    UHD_REQUIRE(encoded.size() == n_queries * dim(), "encoded block size mismatch");
    UHD_REQUIRE(out.size() == n_queries, "prediction buffer size mismatch");
    if (n_queries == 0) return;
    if (mode_ == query_mode::integer) {
        // The integer cosine path has no query-GEMM formulation yet — its
        // blocked-dot kernels are per (query, row) — so the block entry
        // point keeps the contract by looping.
        for (std::size_t q = 0; q < n_queries; ++q) {
            out[q] = predict_encoded(encoded.subspan(q * dim(), dim()));
        }
        return;
    }
    mem_.nearest_block(binarize_block(encoded, n_queries, dim()), n_queries, out);
}

void inference_snapshot::predict_packed_block(
    std::span<const std::uint64_t> queries_words, std::size_t n_queries,
    std::span<std::size_t> out) const {
    mem_.nearest_block(queries_words, n_queries, out);
}

// uhd-lint: test-reference test_inference_snapshot checks published and loaded snapshots for bit-identity with it
bool inference_snapshot::operator==(const inference_snapshot& other) const noexcept {
    return mode_ == other.mode_ && mem_ == other.mem_ && values_ == other.values_ &&
           norm_sq_ == other.norm_sq_;
}

std::size_t inference_snapshot::memory_bytes() const noexcept {
    return mem_.memory_bytes() + values_.capacity() * sizeof(std::int32_t) +
           norm_sq_.capacity() * sizeof(double);
}

} // namespace uhd::hdc

#include "uhd/hdc/class_memory.hpp"

#include <algorithm>

#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"

namespace uhd::hdc {

class_memory::class_memory(std::size_t classes, std::size_t dim)
    : classes_(classes), dim_(dim), words_(kernels::sign_words(dim)),
      rows_(classes * words_, 0) {
    UHD_REQUIRE(classes >= 1, "class memory needs at least one class");
    UHD_REQUIRE(dim >= 1, "class memory needs a positive dimension");
}

void class_memory::store(std::size_t c, const hypervector& hv) {
    UHD_REQUIRE(c < classes_, "class index out of range");
    UHD_REQUIRE(hv.dim() == dim_, "hypervector dimension mismatch");
    const auto words = hv.bits().words();
    std::copy(words.begin(), words.end(), rows_.begin() + static_cast<std::ptrdiff_t>(c * words_));
}

std::span<const std::uint64_t> class_memory::row(std::size_t c) const {
    UHD_REQUIRE(c < classes_, "class index out of range");
    return {rows_.data() + c * words_, words_};
}

std::size_t class_memory::nearest(std::span<const std::uint64_t> query_words,
                                  std::uint64_t* distance_out) const {
    std::size_t index = 0;
    nearest_block(query_words, 1, {&index, 1}, distance_out);
    return index;
}

void class_memory::nearest_block(std::span<const std::uint64_t> queries_words,
                                 std::size_t n_queries, std::span<std::size_t> out,
                                 std::uint64_t* distances_out) const {
    UHD_REQUIRE(classes_ >= 1, "nearest_block() on an empty class memory");
    UHD_REQUIRE(queries_words.size() == n_queries * words_,
                "query block word count mismatch");
    UHD_REQUIRE(out.size() == n_queries, "prediction buffer size mismatch");
    if (n_queries == 0) return;
    // Per-thread scratch: one argmin2 slot per query in the block.
    static thread_local std::vector<kernels::argmin2_result> results;
    results.resize(n_queries);
    kernels::hamming_block_argmin2_prefix(queries_words.data(), words_, n_queries,
                                          rows_.data(), words_, words_, classes_,
                                          results.data());
    for (std::size_t q = 0; q < n_queries; ++q) {
        out[q] = results[q].index;
        if (distances_out != nullptr) distances_out[q] = results[q].distance;
    }
}

std::size_t class_memory::nearest(const hypervector& query,
                                  std::uint64_t* distance_out) const {
    UHD_REQUIRE(query.dim() == dim_, "query dimension mismatch");
    return nearest(query.bits().words(), distance_out);
}

bool class_memory::operator==(const class_memory& other) const noexcept {
    return classes_ == other.classes_ && dim_ == other.dim_ && rows_ == other.rows_;
}

} // namespace uhd::hdc

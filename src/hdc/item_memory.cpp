#include "uhd/hdc/item_memory.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "uhd/common/bits.hpp"
#include "uhd/common/error.hpp"
#include "uhd/lowdisc/lfsr.hpp"

namespace uhd::hdc {
namespace {

// Fill `words` with random bits from the selected source. The LFSR path
// mirrors the hardware: a 32-bit maximal-length register streams bits.
void fill_random_words(std::span<std::uint64_t> words, randomness_source source,
                       std::uint64_t seed) {
    if (source == randomness_source::xoshiro) {
        xoshiro256ss rng(seed);
        for (auto& w : words) w = rng.next();
        return;
    }
    ld::lfsr reg(32, static_cast<std::uint32_t>(seed | 1u), ld::lfsr_kind::fibonacci);
    for (auto& w : words) {
        std::uint64_t word = 0;
        for (int half = 0; half < 2; ++half) {
            word |= static_cast<std::uint64_t>(reg.next_bits(32)) << (32 * half);
        }
        w = word;
    }
}

// One row's worth of words from a generator already positioned at the row
// start — the shared stream body of fill_random_words.
void stream_row_words(xoshiro256ss& rng, std::uint64_t* row, std::size_t words) {
    for (std::size_t w = 0; w < words; ++w) row[w] = rng.next();
}

void stream_row_words(ld::lfsr& reg, std::uint64_t* row, std::size_t words) {
    for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t word = 0;
        for (int half = 0; half < 2; ++half) {
            word |= static_cast<std::uint64_t>(reg.next_bits(32)) << (32 * half);
        }
        row[w] = word;
    }
}

} // namespace

position_item_memory::position_item_memory(std::size_t count, std::size_t dim,
                                           randomness_source source, std::uint64_t seed,
                                           bank_mode mode)
    : count_(count), dim_(dim), words_per_row_(words_for_bits(dim)), source_(source),
      mode_(mode) {
    UHD_REQUIRE(count >= 1, "position memory needs at least one vector");
    UHD_REQUIRE(dim >= 1, "hypervector dimension must be positive");
    if (mode_ == bank_mode::stored) {
        words_.resize(count_ * words_per_row_);
        fill_random_words(words_, source, seed);
        // Zero each row's tail so whole-word popcounts remain exact.
        const std::size_t used = dim_ % word_bits;
        if (used != 0) {
            for (std::size_t p = 0; p < count_; ++p) {
                words_[p * words_per_row_ + words_per_row_ - 1] &= low_mask(used);
            }
        }
        return;
    }
    // Rematerialize: walk the same continuous generator stream the stored
    // mode consumes, but keep only each row's restart state — O(count)
    // bytes instead of O(count * dim) bits, with bit-identical rows.
    std::vector<std::uint64_t> discard(words_per_row_);
    if (source_ == randomness_source::xoshiro) {
        xoshiro256ss rng(seed);
        xoshiro_states_.resize(count_ * 4);
        for (std::size_t p = 0; p < count_; ++p) {
            const auto snap = rng.state();
            std::copy(snap.begin(), snap.end(), xoshiro_states_.data() + p * 4);
            stream_row_words(rng, discard.data(), words_per_row_);
        }
    } else {
        ld::lfsr reg(32, static_cast<std::uint32_t>(seed | 1u),
                     ld::lfsr_kind::fibonacci);
        lfsr_states_.resize(count_);
        for (std::size_t p = 0; p < count_; ++p) {
            lfsr_states_[p] = reg.state();
            stream_row_words(reg, discard.data(), words_per_row_);
        }
    }
}

void position_item_memory::materialize_row(std::size_t p, std::uint64_t* row) const {
    if (source_ == randomness_source::xoshiro) {
        std::array<std::uint64_t, 4> snap;
        std::copy_n(xoshiro_states_.data() + p * 4, 4, snap.begin());
        xoshiro256ss rng = xoshiro256ss::from_state(snap);
        stream_row_words(rng, row, words_per_row_);
    } else {
        // The maximal-length register never reaches the all-zero lock-up
        // state, so the snapshot is always a valid seed.
        ld::lfsr reg(32, lfsr_states_[p], ld::lfsr_kind::fibonacci);
        stream_row_words(reg, row, words_per_row_);
    }
    const std::size_t used = dim_ % word_bits;
    if (used != 0) row[words_per_row_ - 1] &= low_mask(used);
}

std::span<const std::uint64_t> position_item_memory::row_words(std::size_t p) const {
    UHD_REQUIRE(p < count_, "position index out of range");
    if (mode_ == bank_mode::stored) {
        return {words_.data() + p * words_per_row_, words_per_row_};
    }
    // Reused per thread: the binding loop fetches one row per pixel.
    static thread_local std::vector<std::uint64_t> row;
    row.resize(words_per_row_);
    materialize_row(p, row.data());
    return {row.data(), row.size()};
}

// uhd-lint: test-reference test_baseline_encoder's reference encode and test_rematerialize read position vectors with it
hypervector position_item_memory::vector(std::size_t p) const {
    const auto row = row_words(p);
    bs::bitstream bits(dim_);
    auto dst = bits.mutable_words();
    for (std::size_t w = 0; w < row.size(); ++w) dst[w] = row[w];
    bits.mask_tail();
    return hypervector(std::move(bits));
}

level_item_memory::level_item_memory(std::size_t levels, std::size_t dim,
                                     randomness_source source, std::uint64_t seed,
                                     bank_mode mode)
    : levels_(levels), dim_(dim), words_per_row_(words_for_bits(dim)), mode_(mode) {
    UHD_REQUIRE(levels >= 2 && levels <= 65535, "level count must be in [2, 65535]");
    UHD_REQUIRE(dim >= 1, "hypervector dimension must be positive");

    // One uniform draw per dimension defines where the bit flips from -1 to
    // +1 as the level index k rises (the paper's R vs t = k*D/2^n rule).
    tau_.resize(dim_);
    if (source == randomness_source::xoshiro) {
        xoshiro256ss rng(seed);
        for (auto& t : tau_) {
            t = static_cast<std::uint16_t>(
                std::ceil(rng.next_unit() * static_cast<double>(levels_)));
        }
    } else {
        ld::lfsr reg(32, static_cast<std::uint32_t>(seed | 1u), ld::lfsr_kind::fibonacci);
        for (auto& t : tau_) {
            t = static_cast<std::uint16_t>(
                std::ceil(reg.next_unit() * static_cast<double>(levels_)));
        }
    }

    if (mode_ == bank_mode::rematerialize) return; // rows are pure functions of tau_

    // Materialize all level rows packed: bit = 1 (-1) while k < tau_d.
    words_.assign(levels_ * words_per_row_, 0);
    for (std::size_t k = 1; k <= levels_; ++k) {
        materialize_row(k, words_.data() + (k - 1) * words_per_row_);
    }
}

void level_item_memory::materialize_row(std::size_t k, std::uint64_t* row) const {
    std::fill_n(row, words_per_row_, std::uint64_t{0});
    for (std::size_t d = 0; d < dim_; ++d) {
        if (k < tau_[d]) row[d / word_bits] |= std::uint64_t{1} << (d % word_bits);
    }
}

std::span<const std::uint64_t> level_item_memory::row_words(std::size_t k) const {
    UHD_REQUIRE(k >= 1 && k <= levels_, "level index out of range (1-based)");
    if (mode_ == bank_mode::stored) {
        return {words_.data() + (k - 1) * words_per_row_, words_per_row_};
    }
    static thread_local std::vector<std::uint64_t> row;
    row.resize(words_per_row_);
    materialize_row(k, row.data());
    return {row.data(), row.size()};
}

// uhd-lint: test-reference test_baseline_encoder's reference encode and test_rematerialize read level vectors with it
hypervector level_item_memory::vector(std::size_t k) const {
    const auto row = row_words(k);
    bs::bitstream bits(dim_);
    auto dst = bits.mutable_words();
    for (std::size_t w = 0; w < row.size(); ++w) dst[w] = row[w];
    bits.mask_tail();
    return hypervector(std::move(bits));
}

} // namespace uhd::hdc

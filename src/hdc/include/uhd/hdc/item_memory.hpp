// Item memories of the baseline HDC system (paper Fig. 1(a)).
//
// * position_item_memory — one quasi-orthogonal pseudo-random hypervector
//   P_p per pixel position, generated by comparing a random number against
//   the no-bias threshold t = 0.5 (equivalently: one random bit per element).
//   The random source is either a software PRNG (xoshiro256**) or the
//   hardware-faithful LFSR the paper synthesizes.
// * level_item_memory — 2^n correlated level hypervectors L_1..L_{2^n}
//   generated by the paper's progressive bit-flipping rule: one random draw
//   R_d per dimension defines a per-dimension flip level tau_d, and
//   L_k[d] = +1 iff k >= tau_d. Adjacent levels therefore differ in few
//   positions while distant levels approach orthogonality.
//
// Rows are stored packed and contiguous so the binding loop can XOR whole
// 64-bit words. With bank_mode::rematerialize the dense row storage is
// dropped: the position memory keeps only each row's generator restart
// state (the LFSR register / xoshiro snapshot, per Schmuck et al.'s
// on-the-fly hardware regeneration) and the level memory keeps only the
// flip levels tau_d; rows are regenerated bit-identically on demand.
#ifndef UHD_HDC_ITEM_MEMORY_HPP
#define UHD_HDC_ITEM_MEMORY_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "uhd/common/bank_mode.hpp"
#include "uhd/hdc/hypervector.hpp"

namespace uhd::hdc {

/// Random source used for baseline hypervector generation.
enum class randomness_source {
    xoshiro, ///< software PRNG (the paper's CPU implementation)
    lfsr,    ///< maximal-length LFSR (the paper's hardware implementation)
};

/// Pseudo-random position hypervectors P_1..P_H, packed row-major.
class position_item_memory {
public:
    /// Generate `count` hypervectors of dimension `dim` from `source`.
    /// With bank_mode::rematerialize only per-row generator restart states
    /// are kept (4 bytes/row for the LFSR, 32 for xoshiro) and rows are
    /// regenerated on demand, bit-identical to the stored ones.
    position_item_memory(std::size_t count, std::size_t dim, randomness_source source,
                         std::uint64_t seed, bank_mode mode = bank_mode::stored);

    /// Packed words of row `p` (tail bits zero). In rematerialize mode the
    /// row is regenerated into a per-thread buffer, so the span is valid
    /// until the calling thread's next row_words() call on any
    /// position_item_memory.
    [[nodiscard]] std::span<const std::uint64_t> row_words(std::size_t p) const;

    /// Row `p` as a hypervector (copies; for tests/diagnostics).
    [[nodiscard]] hypervector vector(std::size_t p) const;

    /// Heap footprint (Table I memory accounting; exact — size(), not
    /// capacity()). In rematerialize mode this is the restart-state table
    /// alone: the O(count * dim) rows are gone.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return words_.size() * sizeof(std::uint64_t) +
               xoshiro_states_.size() * sizeof(std::uint64_t) +
               lfsr_states_.size() * sizeof(std::uint32_t);
    }

private:
    void materialize_row(std::size_t p, std::uint64_t* row) const;

    std::size_t count_;
    std::size_t dim_;
    std::size_t words_per_row_;
    randomness_source source_;
    bank_mode mode_;
    std::vector<std::uint64_t> words_; // stored mode: count x words_per_row
    // rematerialize mode: per-row restart state of the one continuous
    // generator stream the stored mode consumes (exactly one is non-empty).
    std::vector<std::uint64_t> xoshiro_states_; // count x 4 snapshot words
    std::vector<std::uint32_t> lfsr_states_;    // count register snapshots
};

/// Correlated level hypervectors L_1..L_levels via progressive bit flipping.
class level_item_memory {
public:
    /// Generate `levels` hypervectors of dimension `dim`. With
    /// bank_mode::rematerialize only the per-dimension flip levels tau_d
    /// are kept — every level row is a pure function of tau_ and is
    /// regenerated on demand, bit-identical to the stored ones.
    level_item_memory(std::size_t levels, std::size_t dim, randomness_source source,
                      std::uint64_t seed, bank_mode mode = bank_mode::stored);

    /// Map an 8-bit intensity to its level index k in [1, levels].
    [[nodiscard]] std::size_t level_of(std::uint8_t intensity) const noexcept {
        return (static_cast<std::size_t>(intensity) * levels_) / 256 + 1;
    }

    /// Packed words of level `k` (1-based, k in [1, levels]). In
    /// rematerialize mode the row is regenerated into a per-thread buffer,
    /// so the span is valid until the calling thread's next row_words()
    /// call on any level_item_memory.
    [[nodiscard]] std::span<const std::uint64_t> row_words(std::size_t k) const;

    /// Level `k` as a hypervector (copies; for tests/diagnostics).
    [[nodiscard]] hypervector vector(std::size_t k) const;

    /// Heap footprint (Table I memory accounting; exact — size(), not
    /// capacity()). In rematerialize mode only tau_ remains resident.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return words_.size() * sizeof(std::uint64_t) +
               tau_.size() * sizeof(std::uint16_t);
    }

private:
    void materialize_row(std::size_t k, std::uint64_t* row) const;

    std::size_t levels_;
    std::size_t dim_;
    std::size_t words_per_row_;
    bank_mode mode_;
    std::vector<std::uint16_t> tau_;
    std::vector<std::uint64_t> words_; // stored mode only
};

} // namespace uhd::hdc

#endif // UHD_HDC_ITEM_MEMORY_HPP

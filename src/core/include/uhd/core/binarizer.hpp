// Concurrent accumulate-and-binarize (paper Fig. 5, contribution 5).
//
// For each hypervector dimension, the hardware popcounts the logic-1 bits
// of the traversed level hypervectors (one bit per pixel, H bits total) and
// — instead of a separate subtractor/comparator stage — detects the
// Threshold-of-Binarization TOB = H/2 with a hard-wired masking AND over the
// counter bits. The sign bit latches as soon as the count reaches TOB.
//
// This class is the cycle-semantics software model of that datapath; the
// gate-level twin lives in uhd::hw and the bit-serial simulation in
// uhd::sim. The key behavioural property (tested): the emitted sign bit
// equals (ones >= ceil(H/2)), which matches accumulator::sign()'s
// ties-to-+1 rule for even H.
#ifndef UHD_CORE_BINARIZER_HPP
#define UHD_CORE_BINARIZER_HPP

#include <cstddef>
#include <cstdint>

namespace uhd::core {

/// Popcount counter with hard-wired TOB masking logic.
class popcount_binarizer {
public:
    /// `h` is the number of bits that will be traversed per dimension
    /// (H = rows x cols); TOB = ceil(H/2).
    explicit popcount_binarizer(std::size_t h);

    /// Variant with an explicit threshold (the mean_intensity policy loads
    /// the threshold register with the image's expected popcount instead of
    /// the hard-wired H/2 pattern).
    popcount_binarizer(std::size_t h, std::size_t tob);

    /// Number of inputs H this binarizer was wired for.
    [[nodiscard]] std::size_t inputs() const noexcept { return h_; }

    /// The hard-wired binarization threshold TOB.
    [[nodiscard]] std::size_t threshold() const noexcept { return tob_; }

    /// Counter width ceil(log2(H+1)) in bits.
    [[nodiscard]] unsigned counter_bits() const noexcept { return counter_bits_; }

    /// The AND-mask over counter bits that detects TOB (the masking logic).
    [[nodiscard]] std::uint32_t mask() const noexcept { return mask_; }

    /// Feed one traversed bit (one pixel's level-hypervector bit).
    void feed(bool bit);

    /// Bits consumed so far.
    [[nodiscard]] std::size_t consumed() const noexcept { return consumed_; }

    /// Current popcount value.
    [[nodiscard]] std::size_t count() const noexcept { return count_; }

    /// Latched sign bit: 1 once the count has reached TOB.
    [[nodiscard]] bool sign_bit() const noexcept { return sign_; }

    /// Pure decision function: would `ones` of `h` bits binarize to +1?
    [[nodiscard]] bool decide(std::size_t ones) const noexcept { return ones >= tob_; }

private:
    std::size_t h_;
    std::size_t tob_;
    unsigned counter_bits_;
    std::uint32_t mask_;
    std::size_t count_ = 0;
    std::size_t consumed_ = 0;
    bool sign_ = false;
};

} // namespace uhd::core

#endif // UHD_CORE_BINARIZER_HPP

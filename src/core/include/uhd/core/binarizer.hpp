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

    /// Feed one traversed bit (one pixel's level-hypervector bit); throws
    /// past H bits.
    void feed(bool bit);

    /// Latched sign bit: 1 once the count has reached TOB.
    [[nodiscard]] bool sign_bit() const noexcept { return sign_; }

private:
    std::size_t h_;
    std::size_t tob_;
    std::size_t count_ = 0;
    std::size_t consumed_ = 0;
    bool sign_ = false;
};

} // namespace uhd::core

#endif // UHD_CORE_BINARIZER_HPP

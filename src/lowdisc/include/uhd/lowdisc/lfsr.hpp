// Linear-feedback shift registers.
//
// The paper's baseline HDC uses LFSR modules for pseudo-random hypervector
// generation in hardware (Section IV). This module provides Fibonacci and
// Galois LFSRs with maximal-length tap sets for widths 3..32, a bit-serial
// step() (what the hardware does each cycle) and word/unit conveniences used
// by the software baseline.
#ifndef UHD_LOWDISC_LFSR_HPP
#define UHD_LOWDISC_LFSR_HPP

#include <cstdint>
#include <vector>

namespace uhd::ld {

/// Feedback structure of the shift register.
enum class lfsr_kind {
    fibonacci, ///< external XOR feedback from the tap outputs
    galois,    ///< internal XOR of the output into the tapped stages
};

/// Maximal-length tap positions (1-based, MSB-first convention) for `width`
/// in [3, 32]; throws for other widths.
[[nodiscard]] std::vector<unsigned> maximal_taps(unsigned width);

/// Maximal-length LFSR of `width` bits: period 2^width - 1 over nonzero states.
class lfsr {
public:
    /// `seed` must be nonzero in the low `width` bits (the all-zero state is
    /// the lock-up state); throws otherwise.
    lfsr(unsigned width, std::uint32_t seed, lfsr_kind kind = lfsr_kind::fibonacci);

    /// Current register contents (low `width` bits).
    [[nodiscard]] std::uint32_t state() const noexcept { return state_; }

    /// Advance one cycle and return the output bit.
    bool step() noexcept;

    /// `bits` successive output bits packed LSB-first (bits <= 32).
    [[nodiscard]] std::uint32_t next_bits(unsigned bits) noexcept;

    /// Full register snapshot interpreted as a value in (0, 1): state / 2^width.
    /// Advances the register one cycle first, like hardware sampling on clk.
    [[nodiscard]] double next_unit() noexcept;

private:
    unsigned width_;
    lfsr_kind kind_;
    std::uint32_t mask_;
    std::uint32_t taps_mask_;
    std::uint32_t state_;
};

} // namespace uhd::ld

#endif // UHD_LOWDISC_LFSR_HPP

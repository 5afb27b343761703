// Deterministic pseudo-random number generation used across the library.
//
// The baseline HDC system in the paper relies on pseudo-randomness for
// position/level hypervector generation; results must be reproducible from a
// seed, so we implement small, well-known generators (SplitMix64 for seeding
// and xoshiro256** for bulk generation) instead of depending on the
// implementation-defined std::default_random_engine.
#ifndef UHD_COMMON_RNG_HPP
#define UHD_COMMON_RNG_HPP

#include <array>
#include <cstdint>

namespace uhd {

/// SplitMix64: tiny, fast, passes BigCrush when used as a 64-bit stream.
/// Used for seed expansion and cheap per-index hashing.
class splitmix64 {
public:
    explicit constexpr splitmix64(std::uint64_t seed) noexcept : state_(seed) {}

    /// Next 64 pseudo-random bits.
    constexpr std::uint64_t next() noexcept {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

private:
    std::uint64_t state_;
};

/// Stateless hash of a 64-bit index to 64 bits (one SplitMix64 step).
[[nodiscard]] constexpr std::uint64_t hash64(std::uint64_t x) noexcept {
    return splitmix64(x).next();
}

/// xoshiro256**: general-purpose 64-bit PRNG (Blackman & Vigna).
class xoshiro256ss {
public:
    explicit xoshiro256ss(std::uint64_t seed) noexcept {
        splitmix64 sm(seed);
        for (auto& word : state_) word = sm.next();
    }

    std::uint64_t next() noexcept {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1) with 53 bits of precision.
    double next_unit() noexcept {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /// Uniform integer in [0, bound) without modulo bias (rejection method).
    std::uint64_t next_below(std::uint64_t bound) noexcept {
        if (bound == 0) return 0;
        // Reject draws below 2^64 mod bound so the remainder is unbiased.
        const std::uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            const std::uint64_t x = next();
            if (x >= threshold) return x % bound;
        }
    }

    /// Fair coin flip.
    bool next_bool() noexcept { return (next() >> 63) != 0; }

    /// Raw state snapshot — a rematerialization restart point.
    [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept { return state_; }

    /// Rebuild a generator positioned at a captured snapshot.
    [[nodiscard]] static xoshiro256ss from_state(
        const std::array<std::uint64_t, 4>& state) noexcept {
        xoshiro256ss g(0);
        g.state_ = state;
        return g;
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
};

} // namespace uhd

#endif // UHD_COMMON_RNG_HPP

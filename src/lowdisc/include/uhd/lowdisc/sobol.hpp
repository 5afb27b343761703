// Sobol low-discrepancy sequence generator.
//
// The paper reads its LD sequences from MATLAB's built-in Sobol generator;
// this module is the from-scratch replacement (see DESIGN.md §4.1).
// Direction numbers are derived per dimension from primitive polynomials
// over GF(2) (found by exact search, uhd/lowdisc/gf2.hpp) with
// deterministic initial values, and points are generated in Gray-code order
// (Antonov–Saleev). For any power-of-two prefix length — the paper's
// D = 1K/2K/8K — the emitted point set equals the natural-order Sobol set,
// so every equidistribution property uHD relies on is preserved.
//
// Dimension 0 is the plain van der Corput sequence in base 2 (as in every
// standard Sobol construction); dimension j >= 1 uses the j-th primitive
// polynomial.
#ifndef UHD_LOWDISC_SOBOL_HPP
#define UHD_LOWDISC_SOBOL_HPP

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "uhd/lowdisc/gf2.hpp"

namespace uhd::ld {

/// Width of the direction numbers / output fractions.
inline constexpr int sobol_bits = 32;

/// Per-dimension Sobol parameters: the GF(2) polynomial and initial m-values.
struct sobol_dimension_params {
    gf2_poly polynomial = 0;              ///< 0 marks the van der Corput dimension
    std::vector<std::uint32_t> initial_m; ///< m_1 .. m_s (odd, m_k < 2^k)
};

/// Table of direction numbers for a block of Sobol dimensions.
class sobol_directions {
public:
    /// Standard table: dimension 0 = van der Corput, dimensions >= 1 from
    /// enumerated primitive polynomials; initial m-values are drawn
    /// deterministically from `seed` (odd, in range), with m_1 = 1.
    [[nodiscard]] static sobol_directions standard(std::size_t dimensions,
                                                   std::uint64_t seed = default_seed);

    /// Deterministic default seed for the standard table.
    static constexpr std::uint64_t default_seed = 0x536f626f6cULL; // "Sobol"

    /// Number of dimensions in the table.
    [[nodiscard]] std::size_t dimensions() const noexcept { return params_.size(); }

    /// Direction numbers v_1..v_32 of `dim` (already shifted into place).
    [[nodiscard]] std::span<const std::uint32_t, sobol_bits> direction_numbers(
        std::size_t dim) const;

    /// Construction parameters of `dim` (for diagnostics and tests).
    [[nodiscard]] const sobol_dimension_params& params(std::size_t dim) const;

    /// Heap footprint (Table I memory accounting).
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

private:
    std::vector<std::uint32_t> v_; // dimensions x sobol_bits, row-major
    std::vector<sobol_dimension_params> params_;
};

/// Single-dimension Sobol stream in Gray-code order.
class sobol_sequence {
public:
    /// Bind to one dimension's direction numbers (copied; 32 entries).
    explicit sobol_sequence(std::span<const std::uint32_t, sobol_bits> directions);

    /// Next point as a 32-bit binary fraction. Inline: the per-value
    /// generation loops (rematerialized rows, the byte bank, sobol_points,
    /// encode_exact) call it once per value.
    std::uint32_t next_fraction() noexcept {
        const std::uint32_t out = state_;
        // Antonov–Saleev: flip the direction number indexed by the lowest
        // zero run of the point counter (== countr_zero(index + 1)).
        const int c = std::countr_zero(index_ + 1);
        state_ ^= v_[static_cast<std::size_t>(c < sobol_bits ? c : sobol_bits - 1)];
        ++index_;
        return out;
    }

    /// Next point as a double in [0, 1).
    double next() noexcept { return fraction_to_unit(next_fraction()); }

    /// Restart from index 0.
    void reset() noexcept;

    /// Index of the next point to be emitted.
    [[nodiscard]] std::uint64_t index() const noexcept { return index_; }

    /// Random access: the fraction that next_fraction() would return after
    /// `target` points have been emitted (Gray-code direct formula).
    [[nodiscard]] std::uint32_t fraction_at(std::uint64_t target) const noexcept;

    /// Jump so the next emitted point has index `target`.
    void seek(std::uint64_t target) noexcept;

    /// Convert a 32-bit fraction to a double in [0, 1).
    [[nodiscard]] static double fraction_to_unit(std::uint32_t fraction) noexcept {
        return static_cast<double>(fraction) * 0x1.0p-32;
    }

private:
    std::array<std::uint32_t, sobol_bits> v_{};
    std::uint32_t state_ = 0;
    std::uint64_t index_ = 0;
};

/// Generate the first `count` points of one dimension as doubles.
[[nodiscard]] std::vector<double> sobol_points(const sobol_directions& directions,
                                               std::size_t dim, std::size_t count);

/// Quantize a unit-interval scalar to xi levels: round(u * (xi - 1)).
/// This is the paper's Fig. 3(a) quantization rule.
[[nodiscard]] std::uint8_t quantize_unit(double u, unsigned levels) noexcept;

/// quantize_unit(sobol_sequence::fraction_to_unit(fraction), levels) in
/// integer arithmetic: fraction * (levels - 1) / 2^32 rounded half up. Both
/// products are exact (at most 40 significant bits), so the two agree on
/// every fraction; this one needs no floating point or libm call, which
/// keeps threshold generation cheap. `levels` in [2, 256].
[[nodiscard]] constexpr std::uint8_t quantize_fraction(std::uint32_t fraction,
                                                       unsigned levels) noexcept {
    return static_cast<std::uint8_t>(
        (static_cast<std::uint64_t>(fraction) * (levels - 1) + (std::uint64_t{1} << 31)) >>
        32);
}

/// Per-level comparison bounds on the raw 32-bit fractions: bounds[q] is
/// the largest fraction f with quantize_unit(fraction_to_unit(f), levels)
/// <= q, so `q >= quantize(f)` is exactly `f <= bounds[q]`. Built by binary
/// search against quantize_unit itself (monotone in f), so the equivalence
/// holds for every representable fraction — the table that lets the
/// rematerializing encoder replace a stored quantized threshold with one
/// u32 compare. `levels` in [2, 256].
[[nodiscard]] std::vector<std::uint32_t> quantize_bounds(unsigned levels);

/// Dense bank of quantized Sobol thresholds: `dims` dimensions x `samples`
/// points, each quantized to `levels` levels (the BRAM contents of Fig. 3(a)).
///
/// When `scramble_seed` is nonzero, each dimension receives a deterministic
/// digital shift (XOR of the 32-bit fractions with a per-dimension random
/// word). A digital shift preserves every within-dimension equidistribution
/// property while breaking the structured correlations *between* dimensions
/// that algorithmically-initialized direction numbers can exhibit — the
/// role Joe–Kuo property-A optimization plays for MATLAB's generator
/// (DESIGN.md §4.1).
class quantized_sobol_bank {
public:
    quantized_sobol_bank(const sobol_directions& directions, std::size_t dims,
                         std::size_t samples, unsigned levels,
                         std::uint64_t scramble_seed = 0);

    /// Wrap an externally generated threshold bank (row-major dims x
    /// samples, values < levels). Used by the sequence-family ablation to
    /// drive the uHD encoder with Halton/R2/pseudo-random thresholds.
    [[nodiscard]] static quantized_sobol_bank from_raw(std::size_t dims,
                                                       std::size_t samples,
                                                       unsigned levels,
                                                       std::vector<std::uint8_t> data);

    [[nodiscard]] std::size_t dims() const noexcept { return dims_; }
    [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
    [[nodiscard]] unsigned levels() const noexcept { return levels_; }

    /// Quantized thresholds of dimension `d` (length samples()).
    [[nodiscard]] std::span<const std::uint8_t> row(std::size_t d) const;

    /// Whole bank, row-major dims() x samples() — the contiguous layout the
    /// word-parallel block kernels stream through (row stride = samples()).
    [[nodiscard]] std::span<const std::uint8_t> data() const noexcept {
        return {data_.data(), data_.size()};
    }

    /// Heap footprint (Table I memory accounting; exact — size(), not
    /// capacity(), so the number gates cleanly in the benches).
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return data_.size() * sizeof(std::uint8_t);
    }

private:
    quantized_sobol_bank() = default; // for from_raw

    std::size_t dims_ = 0;
    std::size_t samples_ = 0;
    unsigned levels_ = 0;
    std::vector<std::uint8_t> data_; // row-major dims x samples
};

} // namespace uhd::ld

#endif // UHD_LOWDISC_SOBOL_HPP

#include "uhd/lowdisc/sobol.hpp"

#include <cmath>

#include "uhd/common/error.hpp"
#include "uhd/common/rng.hpp"

namespace uhd::ld {
namespace {

// Expand m_1..m_s to 32 m-values with the Bratley–Fox recurrence, then shift
// them into direction numbers v_i = m_i << (32 - i).
std::array<std::uint32_t, sobol_bits> make_direction_numbers(
    const sobol_dimension_params& params) {
    std::array<std::uint32_t, sobol_bits> m{};
    std::array<std::uint32_t, sobol_bits> v{};

    if (params.polynomial == 0) {
        // van der Corput dimension: m_i = 1 for all i.
        for (int i = 0; i < sobol_bits; ++i) m[static_cast<std::size_t>(i)] = 1;
    } else {
        const int s = gf2_degree(params.polynomial);
        UHD_REQUIRE(static_cast<std::size_t>(s) == params.initial_m.size(),
                    "initial m-value count must equal the polynomial degree");
        for (int i = 0; i < s && i < sobol_bits; ++i) {
            const std::uint32_t mi = params.initial_m[static_cast<std::size_t>(i)];
            UHD_REQUIRE((mi & 1u) != 0, "initial m-values must be odd");
            UHD_REQUIRE(mi < (std::uint32_t{1} << (i + 1)), "initial m_k must be < 2^k");
            m[static_cast<std::size_t>(i)] = mi;
        }
        for (int i = s; i < sobol_bits; ++i) {
            // m_i = 2 a_1 m_{i-1} ^ 4 a_2 m_{i-2} ^ ... ^ 2^s m_{i-s} ^ m_{i-s}
            std::uint32_t mi = m[static_cast<std::size_t>(i - s)] ^
                               (m[static_cast<std::size_t>(i - s)] << s);
            for (int k = 1; k < s; ++k) {
                const std::uint32_t a_k = (params.polynomial >> (s - k)) & 1u;
                if (a_k != 0) mi ^= m[static_cast<std::size_t>(i - k)] << k;
            }
            m[static_cast<std::size_t>(i)] = mi;
        }
    }

    for (int i = 0; i < sobol_bits; ++i) {
        v[static_cast<std::size_t>(i)] = m[static_cast<std::size_t>(i)]
                                         << (sobol_bits - 1 - i);
    }
    return v;
}

} // namespace

sobol_directions sobol_directions::standard(std::size_t dimensions, std::uint64_t seed) {
    UHD_REQUIRE(dimensions >= 1, "need at least one Sobol dimension");
    sobol_directions table;
    table.params_.reserve(dimensions);
    table.v_.reserve(dimensions * sobol_bits);

    // Dimension 0: van der Corput.
    table.params_.push_back(sobol_dimension_params{});

    if (dimensions > 1) {
        const auto polys = primitive_polynomials(dimensions - 1);
        for (std::size_t d = 1; d < dimensions; ++d) {
            sobol_dimension_params params;
            params.polynomial = polys[d - 1];
            const int s = gf2_degree(params.polynomial);
            params.initial_m.resize(static_cast<std::size_t>(s));
            // Deterministic initial values: m_1 = 1; m_k odd in [1, 2^k).
            splitmix64 sm(seed ^ (0x9e37ULL * d));
            for (int k = 0; k < s; ++k) {
                const std::uint32_t range = std::uint32_t{1} << k; // count of odd values
                const std::uint32_t pick =
                    static_cast<std::uint32_t>(sm.next() % range);
                params.initial_m[static_cast<std::size_t>(k)] = 2 * pick + 1;
            }
            params.initial_m[0] = 1;
            table.params_.push_back(std::move(params));
        }
    }

    for (const auto& params : table.params_) {
        const auto v = make_direction_numbers(params);
        table.v_.insert(table.v_.end(), v.begin(), v.end());
    }
    return table;
}

std::span<const std::uint32_t, sobol_bits> sobol_directions::direction_numbers(
    std::size_t dim) const {
    UHD_REQUIRE(dim < params_.size(), "Sobol dimension out of range");
    return std::span<const std::uint32_t, sobol_bits>(v_.data() + dim * sobol_bits,
                                                      sobol_bits);
}

const sobol_dimension_params& sobol_directions::params(std::size_t dim) const {
    UHD_REQUIRE(dim < params_.size(), "Sobol dimension out of range");
    return params_[dim];
}

std::size_t sobol_directions::memory_bytes() const noexcept {
    // Exact footprint (size, not capacity): these numbers feed Table I and
    // the bench footprint gates, so allocator slack must not inflate them.
    std::size_t bytes = v_.size() * sizeof(std::uint32_t) +
                        params_.size() * sizeof(sobol_dimension_params);
    for (const auto& p : params_) bytes += p.initial_m.size() * sizeof(std::uint32_t);
    return bytes;
}

sobol_sequence::sobol_sequence(std::span<const std::uint32_t, sobol_bits> directions) {
    for (int i = 0; i < sobol_bits; ++i)
        v_[static_cast<std::size_t>(i)] = directions[static_cast<std::size_t>(i)];
}

void sobol_sequence::reset() noexcept {
    state_ = 0;
    index_ = 0;
}

std::uint32_t sobol_sequence::fraction_at(std::uint64_t target) const noexcept {
    // Direct Gray-code formula: x_n = XOR of v_i over set bits of gray(n).
    std::uint64_t gray = target ^ (target >> 1);
    std::uint32_t x = 0;
    int i = 0;
    while (gray != 0 && i < sobol_bits) {
        if (gray & 1u) x ^= v_[static_cast<std::size_t>(i)];
        gray >>= 1;
        ++i;
    }
    return x;
}

void sobol_sequence::seek(std::uint64_t target) noexcept {
    state_ = fraction_at(target);
    index_ = target;
}

std::vector<double> sobol_points(const sobol_directions& directions, std::size_t dim,
                                 std::size_t count) {
    sobol_sequence seq(directions.direction_numbers(dim));
    std::vector<double> points;
    points.reserve(count);
    for (std::size_t i = 0; i < count; ++i) points.push_back(seq.next());
    return points;
}

std::uint8_t quantize_unit(double u, unsigned levels) noexcept {
    if (u <= 0.0) return 0;
    if (u >= 1.0) return static_cast<std::uint8_t>(levels - 1);
    const double scaled = u * static_cast<double>(levels - 1);
    return static_cast<std::uint8_t>(std::lround(scaled));
}

std::vector<std::uint32_t> quantize_bounds(unsigned levels) {
    UHD_REQUIRE(levels >= 2 && levels <= 256, "quantization levels must be in [2, 256]");
    std::vector<std::uint32_t> bounds(levels);
    // Every fraction quantizes to at most levels - 1.
    bounds[levels - 1] = ~std::uint32_t{0};
    for (unsigned q = 0; q + 1 < levels; ++q) {
        // Smallest fraction whose quantized value exceeds q (exists for
        // q < levels - 1: the all-ones fraction quantizes to levels - 1).
        // Binary search is exact because quantize_unit is nondecreasing in
        // the fraction.
        std::uint64_t lo = 0;
        std::uint64_t hi = std::uint64_t{1} << 32;
        while (lo < hi) {
            const std::uint64_t mid = (lo + hi) / 2;
            const std::uint8_t value = quantize_unit(
                sobol_sequence::fraction_to_unit(static_cast<std::uint32_t>(mid)),
                levels);
            if (value > q) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        bounds[q] = static_cast<std::uint32_t>(lo - 1);
    }
    return bounds;
}

quantized_sobol_bank::quantized_sobol_bank(const sobol_directions& directions,
                                           std::size_t dims, std::size_t samples,
                                           unsigned levels, std::uint64_t scramble_seed)
    : dims_(dims), samples_(samples), levels_(levels) {
    UHD_REQUIRE(dims >= 1, "bank needs at least one dimension");
    UHD_REQUIRE(dims <= directions.dimensions(), "directions table has too few dimensions");
    UHD_REQUIRE(levels >= 2 && levels <= 256, "quantization levels must be in [2, 256]");
    data_.resize(dims * samples);
    for (std::size_t d = 0; d < dims; ++d) {
        sobol_sequence seq(directions.direction_numbers(d));
        const std::uint32_t shift =
            scramble_seed == 0
                ? 0u
                : static_cast<std::uint32_t>(hash64(scramble_seed ^ (0x9e3779b9ULL * (d + 1))));
        std::uint8_t* row_data = data_.data() + d * samples;
        for (std::size_t i = 0; i < samples; ++i) {
            const std::uint32_t fraction = seq.next_fraction() ^ shift;
            row_data[i] = quantize_unit(sobol_sequence::fraction_to_unit(fraction), levels);
        }
    }
}

quantized_sobol_bank quantized_sobol_bank::from_raw(std::size_t dims, std::size_t samples,
                                                    unsigned levels,
                                                    std::vector<std::uint8_t> data) {
    UHD_REQUIRE(dims >= 1, "bank needs at least one dimension");
    UHD_REQUIRE(levels >= 2 && levels <= 256, "quantization levels must be in [2, 256]");
    UHD_REQUIRE(data.size() == dims * samples, "raw bank size mismatch");
    for (const std::uint8_t v : data) {
        UHD_REQUIRE(v < levels, "raw bank value exceeds quantization levels");
    }
    quantized_sobol_bank bank;
    bank.dims_ = dims;
    bank.samples_ = samples;
    bank.levels_ = levels;
    bank.data_ = std::move(data);
    return bank;
}

std::span<const std::uint8_t> quantized_sobol_bank::row(std::size_t d) const {
    UHD_REQUIRE(d < dims_, "bank dimension out of range");
    return {data_.data() + d * samples_, samples_};
}

} // namespace uhd::ld

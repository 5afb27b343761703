// Floating-point raster canvas used by the synthetic dataset generators.
//
// Values accumulate in arbitrary float range and are tone-mapped to 8-bit on
// export. All drawing primitives clip at the canvas border.
#ifndef UHD_DATA_CANVAS_HPP
#define UHD_DATA_CANVAS_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "uhd/common/rng.hpp"

namespace uhd::data {

/// Grayscale float raster with simple procedural drawing primitives.
class canvas {
public:
    canvas(std::size_t rows, std::size_t cols, float background = 0.0F);

    [[nodiscard]] float at(std::size_t r, std::size_t c) const;
    void set(std::size_t r, std::size_t c, float value);

    /// Filled soft-edged disk centered at (cy, cx) with radius `radius`.
    void add_disk(double cy, double cx, double radius, float value, double softness = 1.0);

    /// Filled axis-aligned ellipse with soft edge.
    void add_ellipse(double cy, double cx, double ry, double rx, float value,
                     double softness = 1.0);

    /// Filled rectangle [r0, r1) x [c0, c1).
    void add_rect(double r0, double c0, double r1, double c1, float value);

    /// Thick anti-aliased-ish line from (y0, x0) to (y1, x1).
    void add_line(double y0, double x0, double y1, double x1, double thickness,
                  float value);

    /// Ring (annulus) centered at (cy, cx).
    void add_ring(double cy, double cx, double radius, double thickness, float value);

    /// Additive uniform noise in [-amplitude, +amplitude].
    void add_noise(xoshiro256ss& rng, float amplitude);

    /// Multiplicative speckle: each pixel scaled by (1 + amplitude*(u-0.5)*2).
    void add_speckle(xoshiro256ss& rng, float amplitude);

    /// Smooth multi-octave value noise (cheap 1/f texture).
    void add_value_noise(xoshiro256ss& rng, int octaves, float amplitude);

    /// Separable box blur with integer radius >= 1.
    void box_blur(int radius);

    /// Horizontal shear: row r shifts right by shear * (r - rows/2) pixels.
    void shear_horizontal(double shear);

    /// Vertical top-to-bottom intensity gradient added across the canvas.
    void add_gradient(float top_value, float bottom_value);

    /// Export to 8-bit with gain/bias tone mapping and clamping.
    [[nodiscard]] std::vector<std::uint8_t> to_u8(float gain = 1.0F, float bias = 0.0F) const;

private:
    [[nodiscard]] bool inside(long r, long c) const noexcept {
        return r >= 0 && c >= 0 && r < static_cast<long>(rows_) &&
               c < static_cast<long>(cols_);
    }

    std::size_t rows_;
    std::size_t cols_;
    std::vector<float> data_;
};

} // namespace uhd::data

#endif // UHD_DATA_CANVAS_HPP

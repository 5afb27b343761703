#include "uhd/data/canvas.hpp"

#include <algorithm>
#include <cmath>

#include "uhd/common/error.hpp"

namespace uhd::data {

canvas::canvas(std::size_t rows, std::size_t cols, float background)
    : rows_(rows), cols_(cols), data_(rows * cols, background) {
    UHD_REQUIRE(rows > 0 && cols > 0, "canvas must be non-empty");
}

// uhd-lint: test-reference test_dataset reads the blurred canvas back with it
float canvas::at(std::size_t r, std::size_t c) const {
    UHD_REQUIRE(r < rows_ && c < cols_, "canvas index out of range");
    return data_[r * cols_ + c];
}

// uhd-lint: test-reference test_dataset paints the pixels its clamp and blur checks start from with it
void canvas::set(std::size_t r, std::size_t c, float value) {
    UHD_REQUIRE(r < rows_ && c < cols_, "canvas index out of range");
    data_[r * cols_ + c] = value;
}

void canvas::add_disk(double cy, double cx, double radius, float value, double softness) {
    add_ellipse(cy, cx, radius, radius, value, softness);
}

void canvas::add_ellipse(double cy, double cx, double ry, double rx, float value,
                         double softness) {
    const long r0 = static_cast<long>(std::floor(cy - ry - softness));
    const long r1 = static_cast<long>(std::ceil(cy + ry + softness));
    const long c0 = static_cast<long>(std::floor(cx - rx - softness));
    const long c1 = static_cast<long>(std::ceil(cx + rx + softness));
    for (long r = r0; r <= r1; ++r) {
        for (long c = c0; c <= c1; ++c) {
            if (!inside(r, c)) continue;
            const double dy = (static_cast<double>(r) - cy) / std::max(ry, 1e-6);
            const double dx = (static_cast<double>(c) - cx) / std::max(rx, 1e-6);
            const double d = std::sqrt(dy * dy + dx * dx);
            if (d <= 1.0) {
                data_[static_cast<std::size_t>(r) * cols_ + static_cast<std::size_t>(c)] +=
                    value;
            } else if (softness > 0.0) {
                // Fade over `softness` pixels beyond the boundary.
                const double scaled =
                    (d - 1.0) * std::min(ry, rx) / std::max(softness, 1e-6);
                if (scaled < 1.0) {
                    data_[static_cast<std::size_t>(r) * cols_ +
                          static_cast<std::size_t>(c)] +=
                        value * static_cast<float>(1.0 - scaled);
                }
            }
        }
    }
}

void canvas::add_rect(double r0, double c0, double r1, double c1, float value) {
    const long rs = std::max<long>(0, static_cast<long>(std::floor(r0)));
    const long re = std::min<long>(static_cast<long>(rows_), static_cast<long>(std::ceil(r1)));
    const long cs = std::max<long>(0, static_cast<long>(std::floor(c0)));
    const long ce = std::min<long>(static_cast<long>(cols_), static_cast<long>(std::ceil(c1)));
    for (long r = rs; r < re; ++r) {
        for (long c = cs; c < ce; ++c) {
            data_[static_cast<std::size_t>(r) * cols_ + static_cast<std::size_t>(c)] += value;
        }
    }
}

void canvas::add_line(double y0, double x0, double y1, double x1, double thickness,
                      float value) {
    const double dy = y1 - y0;
    const double dx = x1 - x0;
    const double length = std::sqrt(dy * dy + dx * dx);
    const int steps = std::max(2, static_cast<int>(std::ceil(length * 2.0)));
    for (int s = 0; s <= steps; ++s) {
        const double t = static_cast<double>(s) / steps;
        add_disk(y0 + t * dy, x0 + t * dx, thickness * 0.5, value / 2.0F, 0.5);
    }
}

void canvas::add_ring(double cy, double cx, double radius, double thickness, float value) {
    const int steps = std::max(8, static_cast<int>(std::ceil(radius * 8.0)));
    for (int s = 0; s < steps; ++s) {
        const double angle = 2.0 * 3.14159265358979323846 * s / steps;
        add_disk(cy + radius * std::sin(angle), cx + radius * std::cos(angle),
                 thickness * 0.5, value / 3.0F, 0.5);
    }
}

void canvas::add_noise(xoshiro256ss& rng, float amplitude) {
    for (auto& v : data_) {
        v += amplitude * static_cast<float>(rng.next_unit() * 2.0 - 1.0);
    }
}

void canvas::add_speckle(xoshiro256ss& rng, float amplitude) {
    for (auto& v : data_) {
        v *= 1.0F + amplitude * static_cast<float>(rng.next_unit() * 2.0 - 1.0);
    }
}

void canvas::add_value_noise(xoshiro256ss& rng, int octaves, float amplitude) {
    for (int octave = 0; octave < octaves; ++octave) {
        const std::size_t grid = std::size_t{2} << octave; // 2, 4, 8, ...
        const float octave_amplitude = amplitude / static_cast<float>(1 << octave);
        std::vector<float> lattice((grid + 1) * (grid + 1));
        for (auto& v : lattice) v = static_cast<float>(rng.next_unit() * 2.0 - 1.0);
        for (std::size_t r = 0; r < rows_; ++r) {
            for (std::size_t c = 0; c < cols_; ++c) {
                const double gr = static_cast<double>(r) / static_cast<double>(rows_ - 1 + 1) *
                                  static_cast<double>(grid);
                const double gc = static_cast<double>(c) / static_cast<double>(cols_ - 1 + 1) *
                                  static_cast<double>(grid);
                const std::size_t r0 = static_cast<std::size_t>(gr);
                const std::size_t c0 = static_cast<std::size_t>(gc);
                const double fr = gr - static_cast<double>(r0);
                const double fc = gc - static_cast<double>(c0);
                const float v00 = lattice[r0 * (grid + 1) + c0];
                const float v01 = lattice[r0 * (grid + 1) + c0 + 1];
                const float v10 = lattice[(r0 + 1) * (grid + 1) + c0];
                const float v11 = lattice[(r0 + 1) * (grid + 1) + c0 + 1];
                const double top = v00 + (v01 - v00) * fc;
                const double bottom = v10 + (v11 - v10) * fc;
                data_[r * cols_ + c] +=
                    octave_amplitude * static_cast<float>(top + (bottom - top) * fr);
            }
        }
    }
}

void canvas::box_blur(int radius) {
    UHD_REQUIRE(radius >= 1, "blur radius must be >= 1");
    const auto pass = [&](bool horizontal) {
        std::vector<float> out(data_.size(), 0.0F);
        for (std::size_t r = 0; r < rows_; ++r) {
            for (std::size_t c = 0; c < cols_; ++c) {
                float sum = 0.0F;
                int count = 0;
                for (int k = -radius; k <= radius; ++k) {
                    const long rr = static_cast<long>(r) + (horizontal ? 0 : k);
                    const long cc = static_cast<long>(c) + (horizontal ? k : 0);
                    if (!inside(rr, cc)) continue;
                    sum += data_[static_cast<std::size_t>(rr) * cols_ +
                                 static_cast<std::size_t>(cc)];
                    ++count;
                }
                out[r * cols_ + c] = sum / static_cast<float>(count);
            }
        }
        data_ = std::move(out);
    };
    pass(true);
    pass(false);
}

void canvas::shear_horizontal(double shear) {
    std::vector<float> out(data_.size(), 0.0F);
    const double mid = static_cast<double>(rows_) / 2.0;
    for (std::size_t r = 0; r < rows_; ++r) {
        const long shift = static_cast<long>(std::lround(shear * (static_cast<double>(r) - mid)));
        for (std::size_t c = 0; c < cols_; ++c) {
            const long src = static_cast<long>(c) - shift;
            if (src >= 0 && src < static_cast<long>(cols_)) {
                out[r * cols_ + c] = data_[r * cols_ + static_cast<std::size_t>(src)];
            }
        }
    }
    data_ = std::move(out);
}

void canvas::add_gradient(float top_value, float bottom_value) {
    for (std::size_t r = 0; r < rows_; ++r) {
        const float t = static_cast<float>(r) / static_cast<float>(rows_ - 1);
        const float v = top_value + (bottom_value - top_value) * t;
        for (std::size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] += v;
    }
}

std::vector<std::uint8_t> canvas::to_u8(float gain, float bias) const {
    std::vector<std::uint8_t> out(data_.size());
    for (std::size_t i = 0; i < data_.size(); ++i) {
        const float v = data_[i] * gain + bias;
        out[i] = static_cast<std::uint8_t>(std::clamp(v, 0.0F, 255.0F));
    }
    return out;
}

} // namespace uhd::data

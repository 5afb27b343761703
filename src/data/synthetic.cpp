#include "uhd/data/synthetic.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "uhd/common/error.hpp"
#include "uhd/common/rng.hpp"
#include "uhd/data/canvas.hpp"

namespace uhd::data {
namespace {

// 5x7 bitmap font for digits 0-9 (rows top to bottom, '1' = stroke).
constexpr std::array<std::array<const char*, 7>, 10> digit_font = {{
    {"01110", "10001", "10011", "10101", "11001", "10001", "01110"}, // 0
    {"00100", "01100", "00100", "00100", "00100", "00100", "01110"}, // 1
    {"01110", "10001", "00001", "00010", "00100", "01000", "11111"}, // 2
    {"11111", "00010", "00100", "00010", "00001", "10001", "01110"}, // 3
    {"00010", "00110", "01010", "10010", "11111", "00010", "00010"}, // 4
    {"11111", "10000", "11110", "00001", "00001", "10001", "01110"}, // 5
    {"00110", "01000", "10000", "11110", "10001", "10001", "01110"}, // 6
    {"11111", "00001", "00010", "00100", "01000", "01000", "01000"}, // 7
    {"01110", "10001", "10001", "01110", "10001", "10001", "01110"}, // 8
    {"01110", "10001", "10001", "01111", "00001", "00010", "01100"}, // 9
}};

// Paint one font cell as a soft rectangle so scaled glyphs look hand-drawn
// rather than blocky.
void render_digit(canvas& surface, std::size_t digit, double top, double left,
                  double cell_h, double cell_w, float value) {
    const auto& glyph = digit_font[digit];
    for (std::size_t r = 0; r < 7; ++r) {
        for (std::size_t c = 0; c < 5; ++c) {
            if (glyph[r][c] != '1') continue;
            const double cy = top + (static_cast<double>(r) + 0.5) * cell_h;
            const double cx = left + (static_cast<double>(c) + 0.5) * cell_w;
            surface.add_ellipse(cy, cx, cell_h * 0.62, cell_w * 0.62, value, 0.8);
        }
    }
}

// Per-image RNG: decorrelated across (seed, index) pairs.
xoshiro256ss image_rng(std::uint64_t seed, std::size_t index) {
    return xoshiro256ss(hash64(seed ^ (0xd1b54a32d192ed03ULL * (index + 1))));
}

std::vector<std::uint8_t> interleave_rgb(const canvas& r, const canvas& g,
                                         const canvas& b) {
    const auto ru = r.to_u8();
    const auto gu = g.to_u8();
    const auto bu = b.to_u8();
    std::vector<std::uint8_t> out(ru.size() * 3);
    for (std::size_t i = 0; i < ru.size(); ++i) {
        out[3 * i] = ru[i];
        out[3 * i + 1] = gu[i];
        out[3 * i + 2] = bu[i];
    }
    return out;
}

double jitter(xoshiro256ss& rng, double center, double spread) {
    return center + (rng.next_unit() * 2.0 - 1.0) * spread;
}

// ---------------------------------------------------------------- digits --

std::vector<std::uint8_t> draw_digit_image(std::size_t digit, xoshiro256ss& rng) {
    canvas surface(28, 28, 0.0F);
    const double cell_h = jitter(rng, 2.45, 0.45);
    const double cell_w = jitter(rng, 2.45, 0.45);
    const double top = jitter(rng, 14.0 - 3.5 * cell_h, 1.8);
    const double left = jitter(rng, 14.0 - 2.5 * cell_w, 1.8);
    const float stroke = static_cast<float>(jitter(rng, 215.0, 40.0));
    render_digit(surface, digit, top, left, cell_h, cell_w, stroke);
    surface.shear_horizontal(jitter(rng, 0.0, 0.14));
    surface.box_blur(1);
    surface.add_noise(rng, 14.0F);
    return surface.to_u8();
}

// --------------------------------------------------------------- fashion --

std::vector<std::uint8_t> draw_fashion_image(std::size_t label, xoshiro256ss& rng) {
    canvas s(28, 28, 0.0F);
    const float body = static_cast<float>(jitter(rng, 190.0, 35.0));
    const double cx = jitter(rng, 14.0, 1.2);
    const double cy = jitter(rng, 14.0, 1.2);
    switch (label) {
        case 0: { // T-shirt: torso + short horizontal sleeves
            s.add_rect(cy - 6, cx - 5, cy + 9, cx + 5, body);
            s.add_rect(cy - 6, cx - 10, cy - 2, cx + 10, body);
            break;
        }
        case 1: { // Trouser: two legs + waistband
            s.add_rect(cy - 9, cx - 5, cy - 5, cx + 5, body);
            s.add_rect(cy - 5, cx - 5, cy + 10, cx - 1, body);
            s.add_rect(cy - 5, cx + 1, cy + 10, cx + 5, body);
            break;
        }
        case 2: { // Pullover: torso + long straight sleeves
            s.add_rect(cy - 7, cx - 5, cy + 8, cx + 5, body);
            s.add_rect(cy - 7, cx - 11, cy + 6, cx - 7, body);
            s.add_rect(cy - 7, cx + 7, cy + 6, cx + 11, body);
            break;
        }
        case 3: { // Dress: narrow bodice flaring to a wide hem
            for (int band = 0; band < 8; ++band) {
                const double half = 2.5 + 0.8 * band;
                s.add_rect(cy - 8 + 2.2 * band, cx - half, cy - 8 + 2.2 * (band + 1),
                           cx + half, body);
            }
            break;
        }
        case 4: { // Coat: wide torso, long sleeves, dark front opening
            s.add_rect(cy - 8, cx - 6, cy + 10, cx + 6, body);
            s.add_rect(cy - 8, cx - 11, cy + 8, cx - 7, body);
            s.add_rect(cy - 8, cx + 7, cy + 8, cx + 11, body);
            s.add_rect(cy - 8, cx - 0.7, cy + 10, cx + 0.7, -body * 0.8F);
            break;
        }
        case 5: { // Sandal: sole + diagonal straps
            s.add_rect(cy + 4, cx - 9, cy + 7, cx + 9, body);
            s.add_line(cy + 4, cx - 7, cy - 4, cx + 1, 1.4, body);
            s.add_line(cy + 4, cx - 1, cy - 4, cx + 7, 1.4, body);
            break;
        }
        case 6: { // Shirt: torso + short sleeves + dark collar notch
            s.add_rect(cy - 7, cx - 5, cy + 9, cx + 5, body);
            s.add_rect(cy - 7, cx - 9, cy - 1, cx + 9, body);
            s.add_rect(cy - 7, cx - 1.5, cy - 3, cx + 1.5, -body * 0.7F);
            break;
        }
        case 7: { // Sneaker: low profile + bright sole stripe
            s.add_ellipse(cy + 2, cx, 4.5, 9.0, body, 1.0);
            s.add_rect(cy + 5, cx - 9, cy + 8, cx + 9, body * 1.2F);
            break;
        }
        case 8: { // Bag: body + handle ring
            s.add_rect(cy - 2, cx - 8, cy + 8, cx + 8, body);
            s.add_ring(cy - 5, cx, 4.0, 1.6, body * 1.6F);
            break;
        }
        default: { // Ankle boot: sole + shaft on the left
            s.add_rect(cy + 4, cx - 9, cy + 8, cx + 9, body);
            s.add_rect(cy - 7, cx - 9, cy + 4, cx - 2, body);
            s.add_ellipse(cy + 2, cx + 3, 3.0, 6.0, body * 0.8F, 1.0);
            break;
        }
    }
    s.add_value_noise(rng, 3, 28.0F);
    s.box_blur(1);
    s.add_noise(rng, 10.0F);
    return s.to_u8();
}

// ----------------------------------------------------------------- blood --

std::vector<std::uint8_t> draw_blood_image(std::size_t label, xoshiro256ss& rng) {
    // 8 cell-type classes differing in cell size, nucleus lobe count,
    // nucleus eccentricity, and cytoplasm granularity.
    struct cell_params {
        double cell_radius;
        int lobes;
        double lobe_radius;
        double eccentricity;
        float granularity;
    };
    static constexpr std::array<cell_params, 8> classes = {{
        {9.5, 1, 5.0, 1.0, 4.0F},   // 0: lymphocyte-like (big round nucleus)
        {10.5, 1, 4.0, 1.8, 6.0F},  // 1: monocyte-like (kidney nucleus)
        {10.0, 3, 2.6, 1.0, 22.0F}, // 2: neutrophil-like (3 lobes, granular)
        {10.0, 2, 3.2, 1.0, 30.0F}, // 3: eosinophil-like (2 lobes, coarse)
        {9.0, 2, 2.4, 1.0, 42.0F},  // 4: basophil-like (dense granules)
        {7.0, 1, 2.0, 1.0, 3.0F},   // 5: erythroblast-like (small)
        {5.0, 0, 0.0, 1.0, 2.0F},   // 6: platelet-like (no nucleus, tiny)
        {11.5, 4, 2.2, 1.0, 16.0F}, // 7: immature-granulocyte-like (4 lobes)
    }};
    const auto& p = classes[label];

    canvas r(28, 28, 236.0F);
    canvas g(28, 28, 206.0F);
    canvas b(28, 28, 214.0F);
    // Background red-cell ghosts.
    for (int ghost = 0; ghost < 5; ++ghost) {
        const double gy = rng.next_unit() * 28.0;
        const double gx = rng.next_unit() * 28.0;
        r.add_disk(gy, gx, 3.5, -14.0F, 1.5);
        g.add_disk(gy, gx, 3.5, -26.0F, 1.5);
        b.add_disk(gy, gx, 3.5, -18.0F, 1.5);
    }
    const double cy = jitter(rng, 14.0, 1.5);
    const double cx = jitter(rng, 14.0, 1.5);
    const double cell_radius = jitter(rng, p.cell_radius, 0.9);
    // Cytoplasm: pale violet.
    r.add_disk(cy, cx, cell_radius, -50.0F, 1.5);
    g.add_disk(cy, cx, cell_radius, -36.0F, 1.5);
    b.add_disk(cy, cx, cell_radius, -8.0F, 1.5);
    // Nucleus lobes: dark purple.
    for (int lobe = 0; lobe < p.lobes; ++lobe) {
        const double angle = 2.0 * 3.14159265 * (lobe + rng.next_unit() * 0.3) /
                             std::max(p.lobes, 1);
        const double offset = p.lobes == 1 ? 0.0 : cell_radius * 0.42;
        const double ly = cy + offset * std::sin(angle);
        const double lx = cx + offset * std::cos(angle);
        const double lobe_radius = jitter(rng, p.lobe_radius, 0.35);
        r.add_ellipse(ly, lx, lobe_radius * p.eccentricity, lobe_radius, -150.0F, 1.0);
        g.add_ellipse(ly, lx, lobe_radius * p.eccentricity, lobe_radius, -160.0F, 1.0);
        b.add_ellipse(ly, lx, lobe_radius * p.eccentricity, lobe_radius, -90.0F, 1.0);
    }
    // Granules inside the cytoplasm.
    if (p.granularity > 0.0F) {
        const int grains = static_cast<int>(p.granularity);
        for (int grain = 0; grain < grains; ++grain) {
            const double angle = rng.next_unit() * 2.0 * 3.14159265;
            const double rad = rng.next_unit() * cell_radius * 0.8;
            r.add_disk(cy + rad * std::sin(angle), cx + rad * std::cos(angle), 0.8,
                       -40.0F, 0.4);
            b.add_disk(cy + rad * std::sin(angle), cx + rad * std::cos(angle), 0.8,
                       -25.0F, 0.4);
        }
    }
    r.add_noise(rng, 7.0F);
    g.add_noise(rng, 7.0F);
    b.add_noise(rng, 7.0F);
    return interleave_rgb(r, g, b);
}

// ---------------------------------------------------------------- breast --

std::vector<std::uint8_t> draw_breast_image(std::size_t label, xoshiro256ss& rng) {
    canvas s(28, 28, 118.0F);
    s.add_gradient(18.0F, -22.0F); // near-field brighter, far-field darker
    // Ultrasound speckle.
    s.add_speckle(rng, 0.35F);
    s.add_value_noise(rng, 3, 20.0F);

    const double cy = jitter(rng, 14.5, 2.0);
    const double cx = jitter(rng, 14.0, 2.0);
    if (label == 0) {
        // Benign-like: smooth dark ellipse, wider than tall, crisp margin.
        const double ry = jitter(rng, 3.4, 0.7);
        const double rx = jitter(rng, 5.6, 1.0);
        s.add_ellipse(cy, cx, ry, rx, -95.0F, 1.2);
        s.add_ellipse(cy, cx, ry * 0.65, rx * 0.65, -25.0F, 1.0);
    } else {
        // Malignant-like: irregular lobulated mass with spicules and shadow.
        const double base = jitter(rng, 4.0, 0.8);
        for (int lump = 0; lump < 6; ++lump) {
            const double angle = 2.0 * 3.14159265 * lump / 6.0 + rng.next_unit();
            const double off = base * (0.35 + 0.4 * rng.next_unit());
            s.add_disk(cy + off * std::sin(angle), cx + off * std::cos(angle),
                       base * (0.5 + 0.4 * rng.next_unit()), -70.0F, 1.0);
        }
        for (int spicule = 0; spicule < 5; ++spicule) {
            const double angle = rng.next_unit() * 2.0 * 3.14159265;
            s.add_line(cy, cx, cy + (base + 4.5) * std::sin(angle),
                       cx + (base + 4.5) * std::cos(angle), 0.9, -45.0F);
        }
        // Posterior acoustic shadowing below the mass.
        s.add_rect(cy + base, cx - base, 28, cx + base, -30.0F);
    }
    s.box_blur(1);
    return s.to_u8();
}

// ---------------------------------------------------------------- cifar --

std::vector<std::uint8_t> draw_cifar_image(std::size_t label, xoshiro256ss& rng) {
    canvas r(32, 32, 0.0F);
    canvas g(32, 32, 0.0F);
    canvas b(32, 32, 0.0F);
    const double cy = jitter(rng, 17.0, 2.0);
    const double cx = jitter(rng, 16.0, 2.5);
    auto sky = [&](float rr, float gg, float bb) {
        r.add_gradient(rr + 30.0F, rr - 20.0F);
        g.add_gradient(gg + 30.0F, gg - 20.0F);
        b.add_gradient(bb + 30.0F, bb - 20.0F);
    };
    auto blob = [&](double y, double x, double ry, double rx, float rr, float gg,
                    float bb) {
        r.add_ellipse(y, x, ry, rx, rr, 1.2);
        g.add_ellipse(y, x, ry, rx, gg, 1.2);
        b.add_ellipse(y, x, ry, rx, bb, 1.2);
    };
    auto bar = [&](double r0, double c0, double r1, double c1, float rr, float gg,
                   float bb) {
        r.add_rect(r0, c0, r1, c1, rr);
        g.add_rect(r0, c0, r1, c1, gg);
        b.add_rect(r0, c0, r1, c1, bb);
    };
    switch (label) {
        case 0: // airplane: blue sky, gray fuselage + wings
            sky(120.0F, 160.0F, 225.0F);
            blob(cy, cx, 2.2, 10.0, 150.0F, 150.0F, 160.0F);
            bar(cy - 1, cx - 2, cy + 7, cx + 2, 130.0F, 130.0F, 140.0F);
            break;
        case 1: // automobile: road, colored body, dark wheels
            bar(22, 0, 32, 32, 70.0F, 70.0F, 72.0F);
            bar(cy - 2, cx - 9, cy + 5, cx + 9,
                static_cast<float>(120 + rng.next_below(120)),
                static_cast<float>(40 + rng.next_below(80)),
                static_cast<float>(40 + rng.next_below(80)));
            bar(cy - 6, cx - 5, cy - 2, cx + 5, 120.0F, 150.0F, 170.0F);
            blob(cy + 5, cx - 6, 2.6, 2.6, 25.0F, 25.0F, 28.0F);
            blob(cy + 5, cx + 6, 2.6, 2.6, 25.0F, 25.0F, 28.0F);
            break;
        case 2: // bird: sky, small body + head + beak line
            sky(135.0F, 170.0F, 220.0F);
            blob(cy, cx, 3.4, 5.2, 140.0F, 110.0F, 80.0F);
            blob(cy - 4, cx + 4, 2.0, 2.0, 150.0F, 120.0F, 90.0F);
            r.add_line(cy - 4, cx + 6, cy - 4, cx + 9, 1.0, 190.0F);
            g.add_line(cy - 4, cx + 6, cy - 4, cx + 9, 1.0, 140.0F);
            break;
        case 3: // cat: warm indoor bg, round head with ear triangles
            sky(160.0F, 130.0F, 110.0F);
            blob(cy, cx, 6.5, 6.0, 120.0F, 95.0F, 70.0F);
            r.add_line(cy - 6, cx - 5, cy - 11, cx - 3, 2.2, 120.0F);
            g.add_line(cy - 6, cx - 5, cy - 11, cx - 3, 2.2, 95.0F);
            r.add_line(cy - 6, cx + 5, cy - 11, cx + 3, 2.2, 120.0F);
            g.add_line(cy - 6, cx + 5, cy - 11, cx + 3, 2.2, 95.0F);
            blob(cy - 1, cx - 2.5, 1.0, 1.0, 30.0F, 120.0F, 40.0F);
            blob(cy - 1, cx + 2.5, 1.0, 1.0, 30.0F, 120.0F, 40.0F);
            break;
        case 4: // deer: green field, brown body, thin legs
            sky(110.0F, 160.0F, 90.0F);
            blob(cy - 2, cx, 4.0, 7.0, 130.0F, 90.0F, 50.0F);
            blob(cy - 8, cx + 6, 2.2, 2.0, 135.0F, 95.0F, 55.0F);
            for (int leg = -1; leg <= 1; leg += 2) {
                bar(cy + 2, cx + 4.0 * leg - 0.7, cy + 11, cx + 4.0 * leg + 0.7,
                    110.0F, 75.0F, 40.0F);
            }
            break;
        case 5: // dog: outdoor bg, elongated head + snout + ears
            sky(150.0F, 140.0F, 120.0F);
            blob(cy, cx, 5.0, 6.5, 150.0F, 120.0F, 80.0F);
            blob(cy + 2, cx + 6, 2.6, 3.6, 160.0F, 130.0F, 95.0F);
            blob(cy - 5, cx - 4, 2.8, 1.6, 120.0F, 95.0F, 60.0F);
            break;
        case 6: // frog: dark ground, green blob with eye bumps
            sky(70.0F, 90.0F, 60.0F);
            blob(cy + 2, cx, 4.5, 7.0, 80.0F, 160.0F, 60.0F);
            blob(cy - 3, cx - 4, 1.8, 1.8, 90.0F, 170.0F, 70.0F);
            blob(cy - 3, cx + 4, 1.8, 1.8, 90.0F, 170.0F, 70.0F);
            break;
        case 7: // horse: field, large body, neck, legs
            sky(140.0F, 150.0F, 110.0F);
            blob(cy, cx - 1, 4.5, 8.0, 90.0F, 60.0F, 45.0F);
            r.add_line(cy - 2, cx + 6, cy - 9, cx + 9, 2.6, 95.0F);
            g.add_line(cy - 2, cx + 6, cy - 9, cx + 9, 2.6, 65.0F);
            b.add_line(cy - 2, cx + 6, cy - 9, cx + 9, 2.6, 48.0F);
            for (int leg = 0; leg < 4; ++leg) {
                const double lx = cx - 6 + 4.0 * leg;
                bar(cy + 3, lx - 0.6, cy + 12, lx + 0.6, 85.0F, 58.0F, 42.0F);
            }
            break;
        case 8: // ship: sea + hull + mast
            sky(130.0F, 170.0F, 230.0F);
            bar(20, 0, 32, 32, 40.0F, 90.0F, 160.0F);
            bar(16, cx - 9, 21, cx + 9, 180.0F, 180.0F, 185.0F);
            bar(8, cx - 1, 16, cx + 1, 140.0F, 140.0F, 150.0F);
            break;
        default: // truck: big cargo box + cab + wheels
            bar(22, 0, 32, 32, 75.0F, 75.0F, 78.0F);
            bar(cy - 7, cx - 9, cy + 4, cx + 3,
                static_cast<float>(130 + rng.next_below(100)),
                static_cast<float>(130 + rng.next_below(100)),
                static_cast<float>(130 + rng.next_below(100)));
            bar(cy - 3, cx + 3, cy + 4, cx + 9, 150.0F, 60.0F, 50.0F);
            blob(cy + 5, cx - 5, 2.6, 2.6, 25.0F, 25.0F, 28.0F);
            blob(cy + 5, cx + 5, 2.6, 2.6, 25.0F, 25.0F, 28.0F);
            break;
    }
    r.add_value_noise(rng, 3, 26.0F);
    g.add_value_noise(rng, 3, 26.0F);
    b.add_value_noise(rng, 3, 26.0F);
    r.box_blur(1);
    g.box_blur(1);
    b.box_blur(1);
    return interleave_rgb(r, g, b);
}

// ----------------------------------------------------------------- svhn --

std::vector<std::uint8_t> draw_svhn_image(std::size_t label, xoshiro256ss& rng) {
    // Colored house-facade background with a brighter centered digit and
    // partial distractor digits at the borders (SVHN's cluttered look). The
    // digit is consistently brighter in luminance so the grayscale pipeline
    // sees a stable polarity, mirroring SVHN's dominant light-on-dark crops.
    const float bg_r = static_cast<float>(30 + rng.next_below(110));
    const float bg_g = static_cast<float>(30 + rng.next_below(110));
    const float bg_b = static_cast<float>(30 + rng.next_below(110));
    canvas r(32, 32, bg_r);
    canvas g(32, 32, bg_g);
    canvas b(32, 32, bg_b);
    r.add_gradient(20.0F, -20.0F);
    g.add_gradient(20.0F, -20.0F);
    b.add_gradient(20.0F, -20.0F);

    const float boost = static_cast<float>(80 + rng.next_below(70));
    const float fg_r = std::min(bg_r + boost, 255.0F);
    const float fg_g = std::min(bg_g + boost, 255.0F);
    const float fg_b = std::min(bg_b + boost, 255.0F);
    const double cell_h = jitter(rng, 2.9, 0.5);
    const double cell_w = jitter(rng, 2.7, 0.5);
    const double top = jitter(rng, 16.0 - 3.5 * cell_h, 1.6);
    const double left = jitter(rng, 16.0 - 2.5 * cell_w, 1.6);
    render_digit(r, label, top, left, cell_h, cell_w, fg_r - bg_r);
    render_digit(g, label, top, left, cell_h, cell_w, fg_g - bg_g);
    render_digit(b, label, top, left, cell_h, cell_w, fg_b - bg_b);

    // Distractor digit fragments poking in from the sides.
    const int distractors = 1 + static_cast<int>(rng.next_below(2));
    for (int i = 0; i < distractors; ++i) {
        const std::size_t other = rng.next_below(10);
        const double side = rng.next_bool() ? 1.0 : -1.0;
        const double dl = 16.0 + side * jitter(rng, 15.0, 2.0) - 2.5 * cell_w;
        render_digit(r, other, top, dl, cell_h, cell_w, (fg_r - bg_r) * 0.55F);
        render_digit(g, other, top, dl, cell_h, cell_w, (fg_g - bg_g) * 0.55F);
        render_digit(b, other, top, dl, cell_h, cell_w, (fg_b - bg_b) * 0.55F);
    }
    r.box_blur(1);
    g.box_blur(1);
    b.box_blur(1);
    r.add_noise(rng, 12.0F);
    g.add_noise(rng, 12.0F);
    b.add_noise(rng, 12.0F);
    return interleave_rgb(r, g, b);
}

using drawer = std::vector<std::uint8_t> (*)(std::size_t, xoshiro256ss&);

dataset generate(dataset_kind kind, std::size_t count, std::uint64_t seed, drawer draw) {
    const dataset_info info = info_for(kind);
    dataset out(info.shape, info.classes);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t label = i % info.classes; // balanced classes
        auto rng = image_rng(seed, i);
        out.add(draw(label, rng), label);
    }
    // Interleave the classes deterministically so prefixes stay balanced.
    out.shuffle(hash64(seed + 17));
    return out;
}

} // namespace

dataset_info info_for(dataset_kind kind) {
    switch (kind) {
        case dataset_kind::mnist: return {"MNIST", {28, 28, 1}, 10};
        case dataset_kind::fashion_mnist: return {"FashionMNIST", {28, 28, 1}, 10};
        case dataset_kind::blood_mnist: return {"BloodMNIST", {28, 28, 3}, 8};
        case dataset_kind::breast_mnist: return {"BreastMNIST", {28, 28, 1}, 2};
        case dataset_kind::cifar10: return {"CIFAR-10", {32, 32, 3}, 10};
        case dataset_kind::svhn: return {"SVHN", {32, 32, 3}, 10};
    }
    throw uhd::error("unknown dataset kind");
}

const std::vector<dataset_kind>& all_dataset_kinds() {
    static const std::vector<dataset_kind> kinds = {
        dataset_kind::mnist,     dataset_kind::fashion_mnist, dataset_kind::blood_mnist,
        dataset_kind::breast_mnist, dataset_kind::cifar10,    dataset_kind::svhn,
    };
    return kinds;
}

dataset make_synthetic(dataset_kind kind, std::size_t count, std::uint64_t seed) {
    switch (kind) {
        case dataset_kind::mnist:
            return generate(kind, count, seed,
                            [](std::size_t l, xoshiro256ss& r) { return draw_digit_image(l, r); });
        case dataset_kind::fashion_mnist:
            return generate(kind, count, seed, [](std::size_t l, xoshiro256ss& r) {
                return draw_fashion_image(l, r);
            });
        case dataset_kind::blood_mnist:
            return generate(kind, count, seed,
                            [](std::size_t l, xoshiro256ss& r) { return draw_blood_image(l, r); });
        case dataset_kind::breast_mnist:
            return generate(kind, count, seed, [](std::size_t l, xoshiro256ss& r) {
                return draw_breast_image(l, r);
            });
        case dataset_kind::cifar10:
            return generate(kind, count, seed,
                            [](std::size_t l, xoshiro256ss& r) { return draw_cifar_image(l, r); });
        case dataset_kind::svhn:
            return generate(kind, count, seed,
                            [](std::size_t l, xoshiro256ss& r) { return draw_svhn_image(l, r); });
    }
    throw uhd::error("unknown dataset kind");
}

dataset make_synthetic_digits(std::size_t count, std::uint64_t seed) {
    return make_synthetic(dataset_kind::mnist, count, seed);
}

} // namespace uhd::data

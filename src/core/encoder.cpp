#include "uhd/core/encoder.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include "uhd/bitstream/unary.hpp"
#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/simd.hpp" // plane_count_sign; pinned-scalar oracles (encode_scalar)

namespace uhd::core {
namespace {

/// The quantization range every encoder supports. Both constructors check
/// it first, in the member-init list: the level count sizes the unary
/// stream table.
void require_levels(unsigned levels) {
    UHD_REQUIRE(levels >= 2 && levels <= 256, "quantization levels must be in [2, 256]");
}

} // namespace

uhd_encoder::uhd_encoder(const uhd_config& config, data::image_shape shape)
    : config_((require_levels(config.quant_levels), config)),
      shape_(shape),
      directions_(ld::sobol_directions::standard(shape.pixels(), config.sobol_seed)),
      ust_(config.quant_levels, config.stream_length()) {
    UHD_REQUIRE(config.dim >= 64, "dimension too small to be hyperdimensional");
    UHD_REQUIRE(shape.channels == 1, "uHD encoder expects grayscale images");

    if (config_.bank == bank_mode::rematerialize) {
        // O(pixels) generator state instead of the O(pixels * D) bank:
        // bit_width(dim) direction words cover every Gray-code advance the
        // kernels perform for point indices <= dim (including the final
        // countr_zero(dim) state step), one digital-shift word per pixel,
        // and one shared bound per quantization level.
        dir_words_ = std::bit_width(config_.dim);
        UHD_REQUIRE(dir_words_ <= static_cast<std::size_t>(ld::sobol_bits),
                    "dimension exceeds the 32-bit Sobol generator range");
        remat_dirs_.resize(shape_.pixels() * dir_words_);
        shifts_.resize(shape_.pixels());
        for (std::size_t p = 0; p < shape_.pixels(); ++p) {
            const auto dirs = directions_.direction_numbers(p);
            std::copy_n(dirs.data(), dir_words_, remat_dirs_.data() + p * dir_words_);
            shifts_[p] = pixel_shift(p);
        }
        bound_table_ = ld::quantize_bounds(config_.quant_levels);
    }
    build_tables(nullptr);
}

uhd_encoder::uhd_encoder(const uhd_config& config, data::image_shape shape,
                         ld::quantized_sobol_bank custom_bank)
    : config_((require_levels(config.quant_levels), config)),
      shape_(shape),
      directions_(ld::sobol_directions::standard(shape.pixels(), config.sobol_seed)),
      ust_(config.quant_levels, config.stream_length()) {
    UHD_REQUIRE(config.bank == bank_mode::stored,
                "a custom threshold bank has no generator to rematerialize from");
    UHD_REQUIRE(config.dim >= 64, "dimension too small to be hyperdimensional");
    UHD_REQUIRE(shape.channels == 1, "uHD encoder expects grayscale images");
    UHD_REQUIRE(custom_bank.dims() == shape.pixels() &&
                    custom_bank.samples() == config.dim &&
                    custom_bank.levels() == config.quant_levels,
                "threshold bank geometry does not match the configuration");
    build_tables(&custom_bank);
}

std::uint32_t uhd_encoder::pixel_shift(std::size_t p) const noexcept {
    // The quantized_sobol_bank ctor's formula, so rematerialized rows are
    // byte-identical to stored ones (including the seed-0 no-shift case).
    if (!config_.scramble || config_.sobol_seed == 0) return 0;
    return static_cast<std::uint32_t>(
        hash64(config_.sobol_seed ^ (0x9e3779b9ULL * (p + 1))));
}

void uhd_encoder::materialize_row(std::size_t p, std::uint8_t* row) const {
    ld::sobol_sequence seq(directions_.direction_numbers(p));
    const std::uint32_t shift = pixel_shift(p);
    for (std::size_t i = 0; i < config_.dim; ++i) {
        row[i] = ld::quantize_fraction(seq.next_fraction() ^ shift, config_.quant_levels);
    }
}

void uhd_encoder::build_tables(const ld::quantized_sobol_bank* custom) {
    for (unsigned x = 0; x < 256; ++x) {
        quant_lut_[x] = ld::quantize_unit(static_cast<double>(x) / 255.0,
                                          config_.quant_levels);
    }

    // Per pixel: its level counts, summed into the threshold CDF (how many
    // of its D thresholds a quantized intensity reaches; used for exact
    // mean-centering), and in stored mode its bit planes and its zero
    // thresholds, counted into Z0. A Sobol pixel is one
    // kernels::sobol_plane_row call, which generates, slices and counts the
    // row in one pass; rematerialize mode keeps only the counts, so it
    // hands the kernel a one-pixel bank of its own. A custom bank's rows are
    // bytes already: simd::slice_threshold_row counts and slices them value
    // by value, as the scalar reference does. No byte row of a Sobol pixel
    // is ever built.
    const unsigned xi = config_.quant_levels;
    const std::size_t npix = shape_.pixels();
    const std::size_t words = kernels::sign_words(config_.dim);
    const std::size_t m = config_.scalar_bits();
    const bool stored = config_.bank == bank_mode::stored;
    // Z0 as bit-sliced counter planes (dimensions past dim count 0), laid
    // out chunk by chunk like a one-pixel bank of n_planes planes: the
    // chunk at word `first` is the counter block geq_plane_count starts
    // from when count_stored hands it that chunk as a bank of its own.
    const std::size_t n_planes = kernels::count_planes(npix);
    if (stored) {
        UHD_REQUIRE(npix <= std::numeric_limits<std::uint32_t>::max(),
                    "too many pixels for the active-pixel list");
        plane_bits_ = m;
        planes_.assign(npix * m * words, 0);
        zero_base_.assign(n_planes * words, 0);
    }
    cdf_counts_.assign(npix * xi, 0);
    std::vector<std::uint64_t> pixel_planes(stored ? 0 : m * words);
    std::vector<std::uint32_t> counts(xi);
    std::vector<std::uint64_t> zeros(words);
    for (std::size_t p = 0; p < npix; ++p) {
        if (custom != nullptr) {
            simd::slice_threshold_row(custom->row(p).data(), xi, config_.dim, npix, p,
                                      planes_.data(), counts.data(), zeros.data());
        } else {
            kernels::sobol_plane_row(directions_.direction_numbers(p).data(), pixel_shift(p),
                                     xi, config_.dim, stored ? npix : 1, stored ? p : 0,
                                     stored ? planes_.data() : pixel_planes.data(),
                                     counts.data(), zeros.data());
        }
        std::partial_sum(counts.begin(), counts.end(), cdf_counts_.begin() + p * xi);
        if (!stored) continue;
        // Add the pixel's zero marks into Z0's counter planes, a ripple
        // carry per word.
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t carry = zeros[w];
            for (std::size_t j = 0; j < n_planes && carry != 0; ++j) {
                std::uint64_t& counter =
                    zero_base_[kernels::plane_word_offset(1, n_planes, words, 0, j, w)];
                const std::uint64_t next = counter & carry;
                counter ^= carry;
                carry = next;
            }
        }
    }
}

std::span<const std::uint8_t> uhd_encoder::sobol_row(std::size_t p) const {
    UHD_REQUIRE(p < shape_.pixels(), "bank dimension out of range");
    // Reused per thread: gate-exact unary encode and encode_scalar fetch
    // rows one pixel at a time.
    static thread_local std::vector<std::uint8_t> row;
    row.resize(config_.dim);
    if (config_.bank == bank_mode::rematerialize) {
        materialize_row(p, row.data());
        return {row.data(), row.size()};
    }
    const std::size_t words = kernels::sign_words(config_.dim);
    row.resize(words * 64); // whole plane words decode; the span ends at dim
    for (std::size_t w = 0; w < words; ++w) {
        simd::decode_plane_word(planes_.data(), shape_.pixels(), plane_bits_, words, p, w,
                                row.data() + w * 64);
    }
    // Undo the relabel: S = (T + 1) mod 2^M.
    const unsigned value_mask = (1u << plane_bits_) - 1;
    for (std::uint8_t& s : row) s = static_cast<std::uint8_t>((s + 1u) & value_mask);
    return {row.data(), config_.dim};
}

std::uint8_t uhd_encoder::threshold(std::size_t p, std::size_t d) const {
    UHD_REQUIRE(p < shape_.pixels() && d < config_.dim, "threshold index out of range");
    if (config_.bank == bank_mode::rematerialize) {
        // Gray-code jump: the d-th fraction is the XOR of the direction
        // numbers over the set bits of gray(d), scrambled by the shift.
        const std::uint32_t* v = remat_dirs_.data() + p * dir_words_;
        std::uint32_t fraction = shifts_[p];
        for (std::uint64_t g = d ^ (d >> 1); g != 0; g &= g - 1) {
            fraction ^= v[std::countr_zero(g)];
        }
        return ld::quantize_fraction(fraction, config_.quant_levels);
    }
    const std::size_t words = kernels::sign_words(config_.dim);
    unsigned value = 0;
    for (std::size_t k = 0; k < plane_bits_; ++k) {
        const std::uint64_t plane =
            planes_[kernels::plane_word_offset(shape_.pixels(), plane_bits_, words, p, k,
                                               d / 64)];
        value |= static_cast<unsigned>((plane >> (d % 64)) & 1u) << k;
    }
    return static_cast<std::uint8_t>((value + 1u) & ((1u << plane_bits_) - 1)); // S = T + 1
}

namespace {

/// 2*TOB under the mean_intensity policy: the exact per-dimension mean of
/// the popcounts, sum_p #{d : q_p >= S_p[d]} / D, doubled and rounded.
[[nodiscard]] std::int32_t mean_threshold(std::int64_t reach_sum, std::size_t dim) {
    const std::int64_t d = static_cast<std::int64_t>(dim);
    return static_cast<std::int32_t>((2 * reach_sum + d / 2) / d);
}

/// One image of a count_stored batch: where its active list starts in the
/// batch's list buffer, how long it is, and the image's 2*TOB.
struct listed_image {
    std::size_t offset;
    std::size_t n_active;
    std::int32_t tau2;
};

} // namespace

template <typename OnPixel>
std::int32_t uhd_encoder::quantize_pass(std::span<const std::uint8_t> image,
                                        OnPixel&& on_pixel) const noexcept {
    const unsigned xi = config_.quant_levels;
    std::int64_t reach_sum = 0;
    for (std::size_t p = 0; p < image.size(); ++p) {
        const std::uint8_t q = quantize_intensity(image[p]);
        reach_sum += cdf_counts_[p * xi + q];
        on_pixel(p, q);
    }
    if (config_.policy == binarize_policy::half_inputs) {
        return static_cast<std::int32_t>(image.size()); // 2 * (H/2)
    }
    return mean_threshold(reach_sum, config_.dim);
}

std::int32_t uhd_encoder::doubled_threshold(std::span<const std::uint8_t> image) const {
    UHD_REQUIRE(image.size() == shape_.pixels(), "image size mismatch");
    return quantize_pass(image, [](std::size_t, std::uint8_t) {});
}

std::int32_t uhd_encoder::add_level_counts(std::span<const std::uint8_t> image,
                                           std::span<std::uint32_t> counts) const {
    const std::size_t npix = shape_.pixels();
    UHD_REQUIRE(image.size() == npix, "image size mismatch");
    UHD_REQUIRE(counts.size() == config_.quant_levels * npix,
                "level histogram size mismatch");
    // Level-major: an image's pixels are mostly at a few levels, so
    // neighbouring pixels at one level bump neighbouring counts.
    std::uint32_t* const table = counts.data();
    return quantize_pass(image, [table, npix](std::size_t p, std::uint8_t q) {
        ++table[q * npix + p];
    });
}

std::int32_t uhd_encoder::quantize_image(std::span<const std::uint8_t> image,
                                         kernels::active_pixel* active,
                                         std::size_t& n_active) const noexcept {
    std::size_t n = 0;
    const std::int32_t tau2 = quantize_pass(image, [active, &n](std::size_t p, std::uint8_t q) {
        // Branch-free append: the slot is always written, and kept only
        // when the pixel is active (a level-0 entry is overwritten next).
        active[n] = {static_cast<std::uint32_t>(p), q - 1u};
        n += q != 0;
    });
    n_active = n;
    return tau2;
}

void uhd_encoder::count_stored(std::span<const std::uint8_t> images, std::size_t count,
                               std::uint64_t* signs, std::int32_t* const* rows) const {
    const std::size_t npix = shape_.pixels();
    const std::size_t words = kernels::sign_words(config_.dim);
    const std::size_t n_planes = kernels::count_planes(npix);
    // Per-thread scratch: the serve workers and the trainer's pool workers
    // call this once per batch or image, so per-call allocation would
    // dominate. A sub-batch's active lists share one buffer, image i's at
    // lists[i].offset. quantize_image writes at most npix slots from an
    // image's offset (its list plus one slot it may overwrite), so
    // sub_batch_images * npix entries hold any sub-batch; the buffer grows
    // before the first sub-batch is listed, never during one. It is left
    // uninitialized, so a sub-batch touches only the pages its lists fill.
    static thread_local std::unique_ptr<kernels::active_pixel[]> active;
    static thread_local std::size_t active_capacity = 0;
    static thread_local std::vector<listed_image> lists;
    static thread_local std::vector<std::uint64_t> counters;
    const std::size_t capacity = std::min(count, sub_batch_images) * npix;
    if (active_capacity < capacity) {
        active = std::make_unique_for_overwrite<kernels::active_pixel[]>(capacity);
        active_capacity = capacity;
    }
    counters.resize(n_planes * kernels::plane_chunk_words);
    for (std::size_t begin = 0; begin < count; begin += sub_batch_images) {
        const std::size_t n = std::min(sub_batch_images, count - begin);
        lists.resize(n);
        std::size_t offset = 0;
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t n_active = 0;
            const std::int32_t tau2 = quantize_image(images.subspan((begin + i) * npix, npix),
                                                     active.get() + offset, n_active);
            lists[i] = {offset, n_active, tau2};
            offset += n_active;
        }
        // Chunk by chunk: under plane_word_offset, the chunk of `width`
        // words at word `first` is itself a bank of `width` words (pixel
        // p's plane k at (p * M + k) * width), and so is Z0's block for it,
        // so every image's count over the chunk is one geq_plane_count call
        // on that chunk alone, followed by the chunk's finisher. Each chunk
        // is read from memory once and stays cache-resident for the rest
        // of the sub-batch.
        for (std::size_t first = 0; first < words; first += kernels::plane_chunk_words) {
            const std::size_t width = std::min(kernels::plane_chunk_words, words - first);
            const std::uint64_t* chunk = planes_.data() + first * npix * plane_bits_;
            const std::uint64_t* base = zero_base_.data() + first * n_planes;
            const std::size_t dims = std::min(64 * width, config_.dim - 64 * first);
            for (std::size_t i = 0; i < n; ++i) {
                const listed_image& image = lists[i];
                kernels::geq_plane_count(active.get() + image.offset, image.n_active, npix,
                                         chunk, plane_bits_, width, base, counters.data());
                if (signs != nullptr) {
                    simd::plane_count_sign(counters.data(), n_planes, width, dims,
                                           image.tau2, signs + (begin + i) * words + first);
                } else {
                    kernels::plane_count_center(counters.data(), n_planes, width, dims,
                                                image.tau2, rows[begin + i] + 64 * first);
                }
            }
        }
    }
}

std::span<const std::int32_t> uhd_encoder::encode_remat(
    std::span<const std::uint8_t> image) const {
    // Fused rematerializing path: translate each pixel's quantized
    // intensity (level 0 for every pixel off the active list) into a
    // raw-fraction bound (state <= bound is exactly q >= quantized
    // threshold; see ld::quantize_bounds), then let the kernel regenerate
    // the Sobol stream in registers over every pixel. D-tiles keep the
    // int32 accumulator slice L1-resident; integer accumulation makes
    // every tile split bit-identical.
    static thread_local std::vector<kernels::active_pixel> active;
    static thread_local std::vector<std::uint32_t> pixel_bounds;
    static thread_local std::vector<std::int32_t> out;
    active.resize(image.size());
    std::size_t n_active = 0;
    const std::int32_t tau2 = quantize_image(image, active.data(), n_active);
    pixel_bounds.assign(image.size(), bound_table_[0]);
    for (std::size_t i = 0; i < n_active; ++i) {
        pixel_bounds[active[i].pixel] = bound_table_[active[i].level + 1];
    }
    out.assign(config_.dim, 0);
    constexpr std::size_t tile = 4096;
    for (std::size_t d0 = 0; d0 < config_.dim; d0 += tile) {
        const std::size_t count = std::min(tile, config_.dim - d0);
        kernels::geq_rematerialize_accumulate(remat_dirs_.data(), dir_words_,
                                              shifts_.data(), pixel_bounds.data(),
                                              image.size(), d0, count, out.data() + d0);
    }
    for (std::int32_t& v : out) v = 2 * v - tau2;
    return {out.data(), out.size()};
}

void uhd_encoder::encode(std::span<const std::uint8_t> image,
                         std::span<std::int32_t> out) const {
    UHD_REQUIRE(image.size() == shape_.pixels(), "image size mismatch");
    UHD_REQUIRE(out.size() == config_.dim, "output accumulator size mismatch");
    std::fill(out.begin(), out.end(), 0);
    std::int32_t* const row = out.data();
    encode_add_batch(image, 1, {&row, 1});
}

void uhd_encoder::encode_add_batch(std::span<const std::uint8_t> images,
                                   std::size_t count,
                                   std::span<std::int32_t* const> rows) const {
    const std::size_t pixels = shape_.pixels();
    UHD_REQUIRE(images.size() == count * pixels, "batch image buffer size mismatch");
    UHD_REQUIRE(rows.size() == count, "one accumulator row per image");
    // The whole pixel x dimension compare loop runs in the dispatched
    // kernels (the active uhd::kernels backend, selected at runtime from
    // the CPU probe or the UHD_BACKEND override).
    if (config_.bank == bank_mode::stored) {
        count_stored(images, count, nullptr, rows.data());
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        const std::span<const std::int32_t> encoded =
            encode_remat(images.subspan(i * pixels, pixels));
        std::int32_t* const row = rows[i];
        for (std::size_t d = 0; d < config_.dim; ++d) row[d] += encoded[d];
    }
}

void uhd_encoder::encode_sign_batch(std::span<const std::uint8_t> images,
                                    std::size_t count,
                                    std::span<std::uint64_t> out) const {
    const std::size_t pixels = shape_.pixels();
    const std::size_t words = kernels::sign_words(config_.dim);
    UHD_REQUIRE(images.size() == count * pixels, "batch image buffer size mismatch");
    UHD_REQUIRE(out.size() == count * words, "packed batch output size mismatch");
    if (config_.bank == bank_mode::stored) {
        count_stored(images, count, out.data(), nullptr);
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        const std::span<const std::int32_t> encoded =
            encode_remat(images.subspan(i * pixels, pixels));
        kernels::sign_binarize(encoded.data(), encoded.size(), out.data() + i * words);
    }
}

void uhd_encoder::encode_scalar(std::span<const std::uint8_t> image,
                                std::span<std::int32_t> out) const {
    UHD_REQUIRE(image.size() == shape_.pixels(), "image size mismatch");
    UHD_REQUIRE(out.size() == config_.dim, "output accumulator size mismatch");

    // geq[d] counts pixels whose quantized intensity reaches the threshold;
    // the centered bundle is 2 * geq - 2 * TOB (see doubled_threshold).
    // The inner loop is the pinned-scalar reference kernel: this path is
    // the oracle and benchmark baseline, so it must stay byte-at-a-time
    // even under -O3 -march=native auto-vectorization.
    std::vector<std::uint16_t> geq(config_.dim, 0);
    std::vector<std::int32_t> totals(config_.dim, 0);
    std::size_t pixels_in_tile = 0;
    for (std::size_t p = 0; p < image.size(); ++p) {
        const std::uint8_t q = quantize_intensity(image[p]);
        simd::geq_accumulate_reference(q, sobol_row(p).data(), config_.dim, geq.data());
        if (++pixels_in_tile == 65535) {
            simd::add_u16_to_i32(geq.data(), config_.dim, totals.data());
            std::fill(geq.begin(), geq.end(), std::uint16_t{0});
            pixels_in_tile = 0;
        }
    }
    if (pixels_in_tile != 0) {
        simd::add_u16_to_i32(geq.data(), config_.dim, totals.data());
    }
    const std::int32_t tau2 = doubled_threshold(image);
    for (std::size_t d = 0; d < config_.dim; ++d) {
        out[d] = 2 * totals[d] - tau2;
    }
}

void uhd_encoder::encode_batch(std::span<const std::uint8_t> images, std::size_t count,
                               std::span<std::int32_t> out, thread_pool* pool) const {
    const std::size_t pixels = shape_.pixels();
    UHD_REQUIRE(images.size() == count * pixels, "batch image buffer size mismatch");
    UHD_REQUIRE(out.size() == count * config_.dim, "batch output size mismatch");
    thread_pool::maybe_parallel_for(pool, count, [&](std::size_t begin, std::size_t end) {
        std::fill(out.begin() + static_cast<std::ptrdiff_t>(begin * config_.dim),
                  out.begin() + static_cast<std::ptrdiff_t>(end * config_.dim), 0);
        std::vector<std::int32_t*> rows(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
            rows[i - begin] = out.data() + i * config_.dim;
        }
        encode_add_batch(images.subspan(begin * pixels, (end - begin) * pixels),
                         end - begin, rows);
    });
}

void uhd_encoder::encode_batch(const data::dataset& set, std::span<std::int32_t> out,
                               thread_pool* pool) const {
    UHD_REQUIRE(set.shape() == shape_, "dataset shape mismatch");
    encode_batch(set.images(0, set.size()), set.size(), out, pool);
}

void uhd_encoder::encode_unary(std::span<const std::uint8_t> image,
                               std::span<std::int32_t> out,
                               unary_fidelity fidelity) const {
    if (fidelity == unary_fidelity::monotone_fast) {
        // A thermometer stream's value is its popcount, and both operands
        // of the Fig. 4 comparator are fetched from the same UST (same
        // length, same alignment), so unary_compare_geq(U[q], U[s])
        // is exactly q >= s — the comparison encode() already performs.
        encode(image, out);
        return;
    }
    UHD_REQUIRE(image.size() == shape_.pixels(), "image size mismatch");
    UHD_REQUIRE(out.size() == config_.dim, "output accumulator size mismatch");

    std::vector<std::int32_t> ones(config_.dim, 0);
    for (std::size_t p = 0; p < image.size(); ++p) {
        // Fetch the intensity's unary stream from the UST (Fig. 3(c))...
        const bs::bitstream& data_stream = ust_.fetch(quantize_intensity(image[p]));
        const std::uint8_t* row = sobol_row(p).data();
        for (std::size_t d = 0; d < config_.dim; ++d) {
            // ...and the Sobol scalar's stream, then run the Fig. 4 comparator.
            const bs::bitstream& sobol_stream = ust_.fetch(row[d]);
            if (bs::unary_compare_geq(data_stream, sobol_stream)) ++ones[d];
        }
    }
    const std::int32_t tau2 = doubled_threshold(image);
    for (std::size_t d = 0; d < config_.dim; ++d) out[d] = 2 * ones[d] - tau2;
}

void uhd_encoder::encode_exact(std::span<const std::uint8_t> image,
                               std::span<std::int32_t> out) const {
    UHD_REQUIRE(image.size() == shape_.pixels(), "image size mismatch");
    UHD_REQUIRE(out.size() == config_.dim, "output accumulator size mismatch");

    std::vector<std::int32_t> ones(config_.dim, 0);
    for (std::size_t p = 0; p < image.size(); ++p) {
        const double x = static_cast<double>(image[p]) / 255.0;
        ld::sobol_sequence seq(directions_.direction_numbers(p));
        const std::uint32_t shift =
            config_.scramble ? static_cast<std::uint32_t>(
                                   hash64(config_.sobol_seed ^ (0x9e3779b9ULL * (p + 1))))
                             : 0u;
        for (std::size_t d = 0; d < config_.dim; ++d) {
            const std::uint32_t fraction = seq.next_fraction() ^ shift;
            if (x >= ld::sobol_sequence::fraction_to_unit(fraction)) ++ones[d];
        }
    }
    // Same centering as encode(): the empirical per-dimension mean popcount.
    std::int64_t total = 0;
    for (const std::int32_t v : ones) total += v;
    const std::int64_t dims = static_cast<std::int64_t>(config_.dim);
    const std::int32_t tau2 =
        config_.policy == binarize_policy::half_inputs
            ? static_cast<std::int32_t>(image.size())
            : static_cast<std::int32_t>((2 * total + dims / 2) / dims);
    for (std::size_t d = 0; d < config_.dim; ++d) out[d] = 2 * ones[d] - tau2;
}

hdc::hypervector uhd_encoder::encode_sign(std::span<const std::uint8_t> image) const {
    bs::bitstream bits(config_.dim);
    encode_sign_batch(image, 1, bits.mutable_words()); // bit 1 = -1
    return hdc::hypervector(std::move(bits));
}

std::size_t uhd_encoder::threshold_bytes() const noexcept {
    if (config_.bank == bank_mode::stored) return planes_.size() * sizeof(std::uint64_t);
    return remat_dirs_.size() * sizeof(std::uint32_t) +
           shifts_.size() * sizeof(std::uint32_t) +
           bound_table_.size() * sizeof(std::uint32_t);
}

std::size_t uhd_encoder::memory_bytes() const noexcept {
    // Exact Table I accounting: every resident byte of encoder state,
    // including the CDF sidecar, the Z0 planes and the 256-entry intensity
    // LUT.
    return threshold_bytes() + ust_.memory_bytes() + directions_.memory_bytes() +
           cdf_counts_.size() * sizeof(std::uint32_t) +
           zero_base_.size() * sizeof(std::uint64_t) + sizeof(quant_lut_);
}

} // namespace uhd::core

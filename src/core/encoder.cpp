#include "uhd/core/encoder.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

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

    // Per-pixel threshold CDF: how many of the pixel's D thresholds a given
    // quantized intensity reaches. Used for exact mean-centering. Every
    // row is generated (or read from the custom bank) once here, counted
    // into the CDF and, in stored mode, sliced into the pixel's bit planes
    // and counted into Z0 (its zero thresholds); only one row is ever held,
    // so the byte bank never exists whole.
    const unsigned xi = config_.quant_levels;
    const std::size_t words = kernels::sign_words(config_.dim);
    const bool stored = config_.bank == bank_mode::stored;
    std::vector<std::uint32_t> zeros;
    if (stored) {
        UHD_REQUIRE(shape_.pixels() <= std::numeric_limits<std::uint32_t>::max(),
                    "too many pixels for the active-pixel list");
        plane_bits_ = config_.scalar_bits();
        planes_.assign(shape_.pixels() * plane_bits_ * words, 0);
        zeros.assign(config_.dim, 0);
    }
    cdf_counts_.assign(shape_.pixels() * xi, 0);
    std::vector<std::uint8_t> scratch(custom != nullptr ? 0 : config_.dim);
    for (std::size_t p = 0; p < shape_.pixels(); ++p) {
        std::uint32_t* cdf = cdf_counts_.data() + p * xi;
        const std::uint8_t* row = nullptr;
        if (custom != nullptr) {
            row = custom->row(p).data();
        } else {
            materialize_row(p, scratch.data());
            row = scratch.data();
        }
        for (std::size_t d = 0; d < config_.dim; ++d) ++cdf[row[d]];
        for (unsigned q = 1; q < xi; ++q) cdf[q] += cdf[q - 1];
        if (stored) {
            for (std::size_t d = 0; d < config_.dim; ++d) zeros[d] += row[d] == 0;
            slice_row(p, row);
        }
    }
    if (!stored) return;
    // Z0 as bit-sliced counter planes (dimensions past dim count 0), laid
    // out chunk by chunk like a one-pixel bank of n_planes planes: the
    // chunk at word `first` is the counter block geq_plane_count starts
    // from when count_stored hands it that chunk as a bank of its own.
    const std::size_t n_planes = kernels::count_planes(shape_.pixels());
    zero_base_.assign(n_planes * words, 0);
    for (std::size_t d = 0; d < config_.dim; ++d) {
        for (std::size_t j = 0; j < n_planes; ++j) {
            zero_base_[kernels::plane_word_offset(1, n_planes, words, 0, j, d / 64)] |=
                static_cast<std::uint64_t>((zeros[d] >> j) & 1u) << (d % 64);
        }
    }
}

void uhd_encoder::slice_row(std::size_t p, const std::uint8_t* row) {
    // Word-level bit transpose: eight stored values form one u64 (byte i =
    // dimension 8g + i); masking bit k of every byte and multiplying by
    // 0x0102040810204080 gathers those eight bits, in order, into the top
    // byte (every partial product lands on its own bit, so nothing
    // carries) — eight plane bits per multiply instead of a per-bit loop.
    constexpr std::uint64_t low_bits = 0x0101010101010101ULL;
    constexpr std::uint64_t gather = 0x0102040810204080ULL;
    const std::size_t dim = config_.dim;
    const std::size_t words = kernels::sign_words(dim);
    const unsigned value_mask = (1u << plane_bits_) - 1;
    for (std::size_t w = 0; w < words; ++w) {
        // The word's 64 thresholds, zero past dim, relabelled to
        // T = (S - 1) mod 2^M (a zero threshold past dim becomes
        // T = 2^M - 1, which no listed level reaches; the finishers ignore
        // dimensions >= dim either way).
        std::uint8_t bytes[64] = {};
        std::copy_n(row + w * 64, std::min<std::size_t>(64, dim - w * 64), bytes);
        for (std::uint8_t& b : bytes) {
            b = static_cast<std::uint8_t>((b - 1u) & value_mask);
        }
        std::uint64_t plane[8] = {};
        for (std::size_t g = 0; g < 8; ++g) {
            std::uint64_t eight = 0;
            if constexpr (std::endian::native == std::endian::little) {
                std::memcpy(&eight, bytes + 8 * g, 8);
            } else {
                for (std::size_t i = 0; i < 8; ++i) {
                    eight |= static_cast<std::uint64_t>(bytes[8 * g + i]) << (8 * i);
                }
            }
            for (std::size_t k = 0; k < plane_bits_; ++k) {
                plane[k] |= ((((eight >> k) & low_bits) * gather) >> 56) << (8 * g);
            }
        }
        for (std::size_t k = 0; k < plane_bits_; ++k) {
            planes_[kernels::plane_word_offset(shape_.pixels(), plane_bits_, words, p, k,
                                               w)] = plane[k];
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

std::int32_t uhd_encoder::doubled_threshold(std::span<const std::uint8_t> image) const {
    UHD_REQUIRE(image.size() == shape_.pixels(), "image size mismatch");
    if (config_.policy == binarize_policy::half_inputs) {
        return static_cast<std::int32_t>(image.size()); // 2 * (H/2)
    }
    // mean_intensity: read the reach counts from the per-pixel CDF tables.
    const unsigned xi = config_.quant_levels;
    std::int64_t reach_sum = 0;
    for (std::size_t p = 0; p < image.size(); ++p) {
        const std::uint8_t q = quantize_intensity(image[p]);
        reach_sum += cdf_counts_[p * xi + q];
    }
    return mean_threshold(reach_sum, config_.dim);
}

std::int32_t uhd_encoder::quantize_image(std::span<const std::uint8_t> image,
                                         kernels::active_pixel* active,
                                         std::size_t& n_active) const noexcept {
    const unsigned xi = config_.quant_levels;
    std::int64_t reach_sum = 0;
    std::size_t n = 0;
    for (std::size_t p = 0; p < image.size(); ++p) {
        const std::uint8_t q = quantize_intensity(image[p]);
        reach_sum += cdf_counts_[p * xi + q];
        // Branch-free append: the slot is always written, and kept only
        // when the pixel is active (a level-0 entry is overwritten next).
        active[n] = {static_cast<std::uint32_t>(p), q - 1u};
        n += q != 0;
    }
    n_active = n;
    if (config_.policy == binarize_policy::half_inputs) {
        return static_cast<std::int32_t>(image.size());
    }
    return mean_threshold(reach_sum, config_.dim);
}

void uhd_encoder::count_stored(std::span<const std::uint8_t> images, std::size_t count,
                               std::uint64_t* signs, std::int32_t* centred) const {
    const std::size_t npix = shape_.pixels();
    const std::size_t words = kernels::sign_words(config_.dim);
    const std::size_t n_planes = kernels::count_planes(npix);
    // Per-thread scratch: the serve workers and the trainer's pool workers
    // call this once per batch or image, so per-call allocation would
    // dominate. The batch's active lists share one buffer, image i's at
    // lists[i].offset. quantize_image writes at most npix slots from an
    // image's offset (its list plus one slot it may overwrite), so
    // count * npix entries hold any batch; the buffer grows before the
    // batch is listed, never during it. It is left uninitialized, so a
    // batch touches only the pages its lists fill.
    static thread_local std::unique_ptr<kernels::active_pixel[]> active;
    static thread_local std::size_t active_capacity = 0;
    static thread_local std::vector<listed_image> lists;
    static thread_local std::vector<std::uint64_t> counters;
    if (active_capacity < count * npix) {
        active = std::make_unique_for_overwrite<kernels::active_pixel[]>(count * npix);
        active_capacity = count * npix;
    }
    lists.resize(count);
    std::size_t offset = 0;
    for (std::size_t i = 0; i < count; ++i) {
        std::size_t n_active = 0;
        const std::int32_t tau2 =
            quantize_image(images.subspan(i * npix, npix), active.get() + offset, n_active);
        lists[i] = {offset, n_active, tau2};
        offset += n_active;
    }
    // Chunk by chunk: under plane_word_offset, the chunk of `width` words
    // at word `first` is itself a bank of `width` words (pixel p's plane k
    // at (p * M + k) * width), and so is Z0's block for it, so every
    // image's count over the chunk is one geq_plane_count call on that
    // chunk alone, followed by the chunk's finisher. Each chunk is read
    // from memory once and stays cache-resident for the rest of the batch.
    counters.resize(n_planes * kernels::plane_chunk_words);
    for (std::size_t first = 0; first < words; first += kernels::plane_chunk_words) {
        const std::size_t width = std::min(kernels::plane_chunk_words, words - first);
        const std::uint64_t* chunk = planes_.data() + first * npix * plane_bits_;
        const std::uint64_t* base = zero_base_.data() + first * n_planes;
        const std::size_t dims = std::min(64 * width, config_.dim - 64 * first);
        for (std::size_t i = 0; i < count; ++i) {
            const listed_image& image = lists[i];
            kernels::geq_plane_count(active.get() + image.offset, image.n_active, npix,
                                     chunk, plane_bits_, width, base, counters.data());
            if (signs != nullptr) {
                simd::plane_count_sign(counters.data(), n_planes, width, dims, image.tau2,
                                       signs + i * words + first);
            } else {
                kernels::plane_count_center(counters.data(), n_planes, width, dims,
                                            image.tau2,
                                            centred + i * config_.dim + 64 * first);
            }
        }
    }
}

void uhd_encoder::encode(std::span<const std::uint8_t> image,
                         std::span<std::int32_t> out) const {
    UHD_REQUIRE(image.size() == shape_.pixels(), "image size mismatch");
    UHD_REQUIRE(out.size() == config_.dim, "output accumulator size mismatch");

    // The whole pixel x dimension compare loop runs in the dispatched
    // kernels (the active uhd::kernels backend, selected at runtime from
    // the CPU probe or the UHD_BACKEND override).
    if (config_.bank == bank_mode::stored) {
        // Bit-sliced counts of q >= S over the planes, then the int32
        // finisher centres them (2 * count - tau2): a batch of one.
        count_stored(image, 1, nullptr, out.data());
        return;
    }
    // Fused rematerializing path: translate each pixel's quantized
    // intensity (level 0 for every pixel off the active list) into a
    // raw-fraction bound (state <= bound is exactly q >= quantized
    // threshold; see ld::quantize_bounds), then let the kernel regenerate
    // the Sobol stream in registers over every pixel. D-tiles keep the
    // int32 accumulator slice L1-resident; integer accumulation makes
    // every tile split bit-identical.
    static thread_local std::vector<kernels::active_pixel> active;
    static thread_local std::vector<std::uint32_t> pixel_bounds;
    active.resize(image.size());
    std::size_t n_active = 0;
    const std::int32_t tau2 = quantize_image(image, active.data(), n_active);
    pixel_bounds.assign(image.size(), bound_table_[0]);
    for (std::size_t i = 0; i < n_active; ++i) {
        pixel_bounds[active[i].pixel] = bound_table_[active[i].level + 1];
    }
    std::fill(out.begin(), out.end(), 0);
    constexpr std::size_t tile = 4096;
    for (std::size_t d0 = 0; d0 < config_.dim; d0 += tile) {
        const std::size_t count = std::min(tile, config_.dim - d0);
        kernels::geq_rematerialize_accumulate(remat_dirs_.data(), dir_words_,
                                              shifts_.data(), pixel_bounds.data(),
                                              image.size(), d0, count, out.data() + d0);
    }
    for (std::size_t d = 0; d < config_.dim; ++d) {
        out[d] = 2 * out[d] - tau2;
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
    static thread_local std::vector<std::int32_t> acc;
    acc.resize(config_.dim);
    for (std::size_t i = 0; i < count; ++i) {
        encode(images.subspan(i * pixels, pixels), acc);
        kernels::sign_binarize(acc.data(), acc.size(), out.data() + i * words);
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
        for (std::size_t i = begin; i < end; ++i) {
            encode(images.subspan(i * pixels, pixels),
                   out.subspan(i * config_.dim, config_.dim));
        }
    });
}

void uhd_encoder::encode_batch(const data::dataset& set, std::span<std::int32_t> out,
                               thread_pool* pool) const {
    UHD_REQUIRE(set.shape() == shape_, "dataset shape mismatch");
    UHD_REQUIRE(out.size() == set.size() * config_.dim, "batch output size mismatch");
    thread_pool::maybe_parallel_for(pool, set.size(),
                                    [&](std::size_t begin, std::size_t end) {
                                        for (std::size_t i = begin; i < end; ++i) {
                                            encode(set.image(i),
                                                   out.subspan(i * config_.dim,
                                                               config_.dim));
                                        }
                                    });
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

// Mini-batch thread-parallel training engine for the centroid classifier.
//
// Single-pass HDC training is a bundling reduction: every image's encoding
// is added into its class accumulator. Because the bundle is an integer sum
// (raw_sums adds the int32 encodings, binarized_images adds their +-1 sign
// vectors), the reduction is associative and commutative — so the training
// set can be split into contiguous per-worker chunks, each chunk bundled
// into its own private class-accumulator set, and the lane sets reduced in
// fixed class/lane order at the end. The result is bit-identical to the
// sequential per-image loop for every thread count and chunking: the same
// determinism contract as predict_batch.
//
// Bundling (bundle_images, shared with hd_classifier::partial_fit) builds
// no int32 image rows when the encoder has a batch path (uhd_encoder): the
// encoder adds each image's bit-sliced counts straight into its class
// accumulator. Encoders that only satisfy the minimal contract (dim() +
// encode()) encode one image at a time into one dim()-sized row.
//
// Histogram path (raw_sums with a level_histogram_encoder, on large sets).
// uHD sets dimension d of pixel p's level vector when q_p >= S_p[d], so a
// class's raw_sums row is exactly
//     acc[c][d] = 2 * sum_p R_c,p(S_p[d]) - sum_{i in c} 2*TOB_i,
//     R_c,p(s) = #{images i of class c : q_i,p >= s}.
// Counting the levels costs O(images x pixels) and evaluating the rows
// O(classes x pixels x D), against O(images x active pixels x D) for
// encoding every image. Each lane owns a contiguous range of classes,
// balanced by image count: it counts its classes' images into their slices
// of one shared classes x levels x pixels table of uint32 counts
// (add_level_counts; no lane touches another's slice, so there is no copy
// and no reduction), turns the counts into R by suffix sums over levels,
// adds sum_p R into its class rows reading each pixel's thresholds once
// per pass of up to eight classes (sobol_row, in every bank mode), and
// finishes each row as
// 2 * sum - sum 2*TOB in 64 bits, every image's TOB rounded on its own as
// the encoder rounds it. sum_p R is at most pixels x class images, which
// the size rule keeps below 2^32, so it stays in 32-bit unsigned lanes.
// The rows equal the per-image lanes' wherever those are exact (no int32
// overflow).
//
// The size rule (histogram_path_pays) takes the path only when
// histogram_cells_per_image x images >= classes x pixels x levels and
// every class has pixels x class images < 2^32. So the table is at most
// 4 x histogram_cells_per_image bytes per training image (below the
// image's own pixels x 1 byte for 28x28 digits), and a set too small to
// pay for the per-class evaluation keeps the per-image lanes, as do
// binarized_images, partial_fit and encoders without a histogram.
//
// Train/serve contract: everything here mutates only *training* state —
// the caller's accumulators — never the read state concurrent queries run
// on. A trainer thread that serves traffic while learning owns its
// hd_classifier privately (fit/partial_fit/retrain on this engine), then
// publishes hd_classifier::snapshot() through
// serve::inference_engine::publish — one atomic pointer swap; in-flight
// readers keep answering from the snapshot they already hold.
#ifndef UHD_HDC_TRAINER_HPP
#define UHD_HDC_TRAINER_HPP

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/data/dataset.hpp"
#include "uhd/hdc/accumulator.hpp"
#include "uhd/hdc/hypervector.hpp"

namespace uhd::hdc {

/// How image encodings are bundled into class accumulators (shared with
/// hd_classifier, which re-exports this header).
enum class train_mode {
    binarized_images, ///< sign() each image hypervector before bundling
    raw_sums,         ///< bundle the integer accumulators directly
};

/// Detected at compile time: encoders that add each image's int32 encode
/// into a caller's row (encode_add_batch) and write packed sign rows
/// (encode_sign_batch) get the batch bundling path.
template <typename Encoder>
concept batch_encoder = requires(const Encoder& e, std::span<const std::uint8_t> imgs,
                                 std::size_t n, std::span<std::int32_t* const> rows,
                                 std::span<std::uint64_t> packed) {
    e.encode_add_batch(imgs, n, rows);
    e.encode_sign_batch(imgs, n, packed);
};

/// Detected at compile time: encoders that count an image's quantized
/// levels into a level histogram (add_level_counts, returning its 2*TOB)
/// and expose each pixel's quantized thresholds (sobol_row) get the
/// histogram path of raw_sums training.
template <typename Encoder>
concept level_histogram_encoder =
    requires(const Encoder& e, std::span<const std::uint8_t> image,
             std::span<std::uint32_t> counts, std::size_t p) {
        { e.add_level_counts(image, counts) } -> std::same_as<std::int32_t>;
        { e.sobol_row(p) } -> std::same_as<std::span<const std::uint8_t>>;
        { e.pixels() } -> std::convertible_to<std::size_t>;
        { e.config().quant_levels } -> std::convertible_to<std::size_t>;
    };

/// Level-histogram cells (uint32 counts) the histogram path may spend per
/// training image: 512 bytes. For 28x28 digits at 16 levels and 10 classes
/// the rule switches at 980 images, where the two paths cost the same.
/// Measured with this code on synthetic digits (median of 15 fits, pool of
/// 2, a 4-vCPU AVX-512 VM): at 768 images per-image lanes took 1.3-1.9 ms
/// and the histogram 1.6-1.9 ms at D = 1024 (11.5-12.0 against 8.1-13.5 ms
/// at D = 8192); at 1,024 images 1.8-2.7 against 1.7-2.4 ms (15-18 against
/// 9.5-12.6 ms). On one thread the paths cross near 600 images.
inline constexpr std::size_t histogram_cells_per_image = 128;

/// The histogram path's size rule: histogram_cells_per_image x `images` >=
/// `classes` x `pixels` x `levels` (the table's cells), and the largest
/// class's pixels x images below 2^32 (so every sum_p R fits 32 bits).
[[nodiscard]] constexpr bool histogram_path_pays(std::size_t images, std::size_t classes,
                                                 std::size_t pixels, std::size_t levels,
                                                 std::size_t largest_class) noexcept {
    const std::size_t cells = pixels * levels; // one class's table
    return cells != 0 && classes <= histogram_cells_per_image * images / cells &&
           largest_class <= std::numeric_limits<std::uint32_t>::max() / pixels;
}

/// Images per bundling block: one encoder sub-batch (the serve engine's
/// default micro-batch).
inline constexpr std::size_t bundle_block_images = 32;

/// Bundle `count` >= 1 equally sized images stored back-to-back in
/// `images` into their classes, image i into acc[label_of(i)]. With a
/// batch encoder each block of bundle_block_images images is one
/// encode_add_batch whose rows are the images' class accumulators
/// (raw_sums), or one encode_sign_batch whose packed rows are added as
/// signs (binarized_images). Scratch is per thread, so a steady stream of
/// calls allocates nothing.
template <typename Encoder, typename LabelOf>
void bundle_images(const Encoder& encoder, train_mode mode,
                   std::span<const std::uint8_t> images, std::size_t count,
                   const LabelOf& label_of, std::span<accumulator> acc) {
    const std::size_t pixels = images.size() / count;
    const std::size_t words = kernels::sign_words(encoder.dim());
    static thread_local std::vector<std::uint64_t> signs;
    if (mode == train_mode::binarized_images) signs.resize(bundle_block_images * words);
    if constexpr (batch_encoder<Encoder>) {
        std::array<std::int32_t*, bundle_block_images> rows{};
        for (std::size_t b = 0; b < count; b += bundle_block_images) {
            const std::size_t n = std::min(bundle_block_images, count - b);
            const auto block = images.subspan(b * pixels, n * pixels);
            if (mode == train_mode::raw_sums) {
                for (std::size_t i = 0; i < n; ++i) {
                    rows[i] = acc[label_of(b + i)].values().data();
                }
                encoder.encode_add_batch(block, n, {rows.data(), n});
                continue;
            }
            encoder.encode_sign_batch(block, n, {signs.data(), n * words});
            for (std::size_t i = 0; i < n; ++i) {
                acc[label_of(b + i)].add_sign_words({signs.data() + i * words, words});
            }
        }
    } else {
        // One row; the sign kernel zeroes the tail bits add_sign_words needs.
        static thread_local std::vector<std::int32_t> encoded;
        encoded.resize(encoder.dim());
        for (std::size_t i = 0; i < count; ++i) {
            encoder.encode(images.subspan(i * pixels, pixels), encoded);
            if (mode == train_mode::raw_sums) {
                acc[label_of(i)].add_values(encoded);
            } else {
                kernels::sign_binarize(encoded.data(), encoded.size(), signs.data());
                acc[label_of(i)].add_sign_words({signs.data(), words});
            }
        }
    }
}

namespace detail {

/// Class pairs one evaluation pass of the histogram path carries. Packing
/// two classes' uint32 sums into one uint64, over groups of four pixels,
/// pays at D = 8192, where a plain per-class loop (sums_c[d] +=
/// R_c,p(S_p[d]), pixel by pixel) streams each class's 32 KiB of sums once
/// per pixel. Measured against that loop (pool of 2, a 4-vCPU AVX-512 VM):
/// online_learn's setup_s (2,000 digits at D = 8192) read 0.024 s against
/// 0.038 s (medians of 6 alternating perfbench pairs, packed lower in 6/6)
/// and fit_parallel on that set 10.5-13.3 against 17.5-19.8 ms; on
/// raw_query (30,000 digits at D = 1024) the count pass dominates and the
/// two read the same (0.032 against 0.031 s, 3/6).
inline constexpr std::size_t histogram_pass_pairs = 4;

/// Pixels one add_threshold_lookups call evaluates.
inline constexpr std::size_t histogram_group_pixels = 4;

/// The histogram path's evaluation step, for a group of
/// histogram_group_pixels pixels: for every d < dim and k < pairs,
///     sums[d * pairs + k] += sum_j luts[(j * levels + rows[j][d]) * pairs + k],
/// where rows[j] holds pixel j's thresholds (values < levels) and pixel j's
/// table packs R(s) of pair k's two classes into the low and high 32 bits.
/// Each half's total stays below 2^32 (the size rule), so no carry crosses
/// from one class into the other. Portable scalar code (hdc/trainer.cpp).
void add_threshold_lookups(std::span<const std::uint8_t* const, histogram_group_pixels> rows,
                           const std::uint64_t* luts, std::size_t levels, std::size_t pairs,
                           std::uint64_t* sums, std::size_t dim) noexcept;

} // namespace detail

/// Mini-batch parallel bundling of a dataset into per-class accumulators.
template <typename Encoder>
class batch_trainer {
public:
    /// `mode` follows hd_classifier's train_mode (binarized_images
    /// sign-binarizes each image encoding before bundling, raw_sums adds
    /// the integer encodings directly).
    batch_trainer(const Encoder& encoder, std::size_t classes, train_mode mode)
        : encoder_(&encoder), classes_(classes), mode_(mode) {
        UHD_REQUIRE(classes >= 1, "trainer needs at least one class");
    }

    /// Bundle the whole dataset into one accumulator per class (the
    /// *delta* of a training pass — callers add it onto their model state).
    /// A raw_sums set that passes histogram_path_pays takes the histogram
    /// path (see the header); any other set is encoded image by image, one
    /// contiguous chunk per pool lane (inline without a pool). Bit-identical
    /// to the sequential per-image loop for every thread count.
    [[nodiscard]] std::vector<accumulator> accumulate(const data::dataset& train,
                                                      thread_pool* pool = nullptr) const {
        if constexpr (level_histogram_encoder<Encoder>) {
            if (mode_ == train_mode::raw_sums) {
                const std::vector<std::size_t> class_images = train.class_counts();
                const std::size_t largest =
                    *std::max_element(class_images.begin(), class_images.end());
                if (histogram_path_pays(train.size(), classes_, encoder_->pixels(),
                                        encoder_->config().quant_levels, largest)) {
                    return accumulate_histogram(train, class_images, pool);
                }
            }
        }
        return accumulate_images(train, pool);
    }

private:
    /// The per-image lanes: chunk c of the set is bundled into lane set c,
    /// and the lane sets are reduced in fixed class/lane order.
    [[nodiscard]] std::vector<accumulator> accumulate_images(const data::dataset& train,
                                                             thread_pool* pool) const {
        const std::size_t dim = encoder_->dim();
        const std::size_t n = train.size();
        const std::size_t lanes = pool == nullptr ? 1 : pool->size() + 1;
        const std::size_t chunks = n == 0 ? 0 : (n < lanes ? n : lanes);

        // One private class-accumulator set per chunk: no shared mutable
        // state during the parallel phase.
        std::vector<std::vector<accumulator>> lane_acc(
            chunks, std::vector<accumulator>(classes_, accumulator(dim)));

        // Chunk c covers [c*base + min(c, extra), ...) — the same contiguous
        // partition for every pool size, so lane_acc[c] holds the bundle of
        // a fixed image range regardless of which worker ran it.
        const std::size_t base = chunks == 0 ? 0 : n / chunks;
        const std::size_t extra = chunks == 0 ? 0 : n % chunks;
        thread_pool::maybe_parallel_for(
            pool, chunks, [&](std::size_t chunk_begin, std::size_t chunk_end) {
                for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
                    const std::size_t begin = c * base + (c < extra ? c : extra);
                    const std::size_t n_images = base + (c < extra ? 1 : 0);
                    bundle_images(*encoder_, mode_, train.images(begin, n_images), n_images,
                                  [&](std::size_t i) { return train.label(begin + i); },
                                  lane_acc[c]);
                }
            });

        // Fixed class/lane reduction order. Integer bundling commutes, so
        // this matches the sequential per-image order exactly; keeping the
        // order fixed anyway makes the contract checkable by inspection.
        std::vector<accumulator> out(classes_, accumulator(dim));
        for (std::size_t cls = 0; cls < classes_; ++cls) {
            for (std::size_t lane = 0; lane < chunks; ++lane) {
                out[cls].add(lane_acc[lane][cls]);
            }
        }
        return out;
    }

    /// The histogram path: lane l counts, sums and evaluates classes
    /// [first[l], first[l + 1]) of one shared level table.
    [[nodiscard]] std::vector<accumulator> accumulate_histogram(
        const data::dataset& train, std::span<const std::size_t> class_images,
        thread_pool* pool) const {
        const std::size_t lanes = pool == nullptr ? 1 : pool->size() + 1;
        const std::size_t cells = encoder_->pixels() * encoder_->config().quant_levels;
        // Contiguous class ranges, each boundary at the class whose images
        // straddle l/lanes of the set (the counting pass is per image).
        std::vector<std::size_t> first(lanes + 1, class_images.size());
        std::size_t cls = 0;
        std::size_t before = 0; // images of classes [0, cls)
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            const std::size_t target = train.size() * lane / lanes;
            while (cls < class_images.size() && before + class_images[cls] / 2 < target) {
                before += class_images[cls++];
            }
            first[lane] = cls;
        }
        std::vector<std::uint32_t> table(class_images.size() * cells);
        std::vector<accumulator> out(classes_, accumulator(encoder_->dim()));
        thread_pool::maybe_parallel_for(
            pool, lanes, [&](std::size_t lane_begin, std::size_t lane_end) {
                for (std::size_t lane = lane_begin; lane < lane_end; ++lane) {
                    train_classes(train, first[lane], first[lane + 1], table.data(), out);
                }
            });
        return out;
    }

    /// One lane of the histogram path over classes [c_begin, c_end).
    void train_classes(const data::dataset& train, std::size_t c_begin, std::size_t c_end,
                       std::uint32_t* table, std::vector<accumulator>& out) const {
        if (c_begin == c_end) return;
        const std::size_t dim = encoder_->dim();
        const std::size_t pixels = encoder_->pixels();
        const std::size_t levels = encoder_->config().quant_levels;
        const std::size_t cells = pixels * levels;

        // Count: every image of the lane's classes into its class's slice,
        // its 2*TOB (rounded per image, as each encode rounds it) into the
        // class's 64-bit total.
        std::vector<std::int64_t> tob(c_end - c_begin, 0);
        for (std::size_t i = 0; i < train.size(); ++i) {
            const std::size_t c = train.label(i);
            if (c < c_begin || c >= c_end) continue;
            tob[c - c_begin] += encoder_->add_level_counts(train.image(i),
                                                           {table + c * cells, cells});
        }

        // R_c,p(s) = #{q >= s}: suffix sums over each pixel's levels.
        for (std::size_t c = c_begin; c < c_end; ++c) {
            std::uint32_t* counts = table + c * cells;
            for (std::size_t s = levels - 1; s > 0; --s) {
                for (std::size_t p = 0; p < pixels; ++p) {
                    counts[(s - 1) * pixels + p] += counts[s * pixels + p];
                }
            }
        }

        // Evaluate sum_p R_c,p(S_p[d]) for up to histogram_pass_pairs class
        // pairs per pass, a group of pixels per lookup call, then finish
        // each row in 64 bits.
        constexpr std::size_t group = detail::histogram_group_pixels;
        std::vector<std::uint8_t> rows(group * dim);
        std::vector<std::uint64_t> luts;
        std::vector<std::uint64_t> sums;
        for (std::size_t c0 = c_begin; c0 < c_end; c0 += 2 * detail::histogram_pass_pairs) {
            const std::size_t n_classes = std::min(2 * detail::histogram_pass_pairs, c_end - c0);
            const std::size_t pairs = (n_classes + 1) / 2;
            luts.assign(group * levels * pairs, 0);
            sums.assign(dim * pairs, 0);
            for (std::size_t p0 = 0; p0 < pixels; p0 += group) {
                // A short last group points its missing pixels at row 0
                // with all-zero tables.
                std::array<const std::uint8_t*, group> row_of{};
                for (std::size_t j = 0; j < group; ++j) {
                    const std::size_t p = p0 + j;
                    row_of[j] = rows.data() + (p < pixels ? j : 0) * dim;
                    std::uint64_t* lut = luts.data() + j * levels * pairs;
                    if (p >= pixels) {
                        std::fill_n(lut, levels * pairs, 0);
                        continue;
                    }
                    const std::span<const std::uint8_t> thresholds = encoder_->sobol_row(p);
                    std::copy(thresholds.begin(), thresholds.end(), rows.data() + j * dim);
                    for (std::size_t s = 0; s < levels; ++s) {
                        for (std::size_t k = 0; k < pairs; ++k) {
                            const std::uint32_t* r = table + (c0 + 2 * k) * cells + s * pixels + p;
                            const std::uint64_t high = 2 * k + 1 < n_classes ? r[cells] : 0;
                            lut[s * pairs + k] = r[0] | high << 32;
                        }
                    }
                }
                detail::add_threshold_lookups(row_of, luts.data(), levels, pairs, sums.data(),
                                              dim);
            }
            for (std::size_t j = 0; j < n_classes; ++j) {
                const std::int64_t class_tob = tob[c0 + j - c_begin];
                const unsigned shift = j % 2 == 0 ? 0 : 32;
                std::int32_t* values = out[c0 + j].values().data();
                for (std::size_t d = 0; d < dim; ++d) {
                    const auto sum = static_cast<std::uint32_t>(sums[d * pairs + j / 2] >> shift);
                    values[d] = static_cast<std::int32_t>(2 * static_cast<std::int64_t>(sum) -
                                                          class_tob);
                }
            }
        }
    }

    const Encoder* encoder_;
    std::size_t classes_;
    train_mode mode_;
};

} // namespace uhd::hdc

#endif // UHD_HDC_TRAINER_HPP

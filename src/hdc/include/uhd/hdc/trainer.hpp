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
#include <cstddef>
#include <cstdint>
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

    /// Encode + bundle the whole dataset into one accumulator per class
    /// (the *delta* of a training pass — callers add it onto their model
    /// state). With a pool the set is split into one contiguous chunk per
    /// worker lane; without one the single chunk runs inline. Bit-identical
    /// for every thread count.
    [[nodiscard]] std::vector<accumulator> accumulate(const data::dataset& train,
                                                      thread_pool* pool = nullptr) const {
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

private:
    const Encoder* encoder_;
    std::size_t classes_;
    train_mode mode_;
};

} // namespace uhd::hdc

#endif // UHD_HDC_TRAINER_HPP

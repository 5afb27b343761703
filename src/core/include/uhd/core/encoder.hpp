// The uHD encoder — the paper's primary contribution (Fig. 2 + Fig. 3).
//
// Position hypervectors are eliminated: pixel p is encoded with its *own*
// Sobol dimension S_p (the sequence index carries the position), and the
// level hypervector is the comparison stream
//
//     L_p[d] = +1  iff  x_p >= S_p[d]
//
// so the whole image encodes as the multiplier-less bundle
// acc[d] = sum_p L_p[d]. Both intensities and Sobol scalars are quantized to
// xi = 16 levels and represented as N = 16-bit unary streams; comparison is
// done with the Fig. 4 unary comparator (>= semantics, which resolves
// quantization ties to +1 — the "flipped bits" the paper argues are
// harmless).
//
// Threshold state. bank_mode::stored keeps the quantized Sobol bank as bit
// planes: M = log2(xi) planes of D bits per pixel — the paper's M-bit BRAM
// word (Fig. 3(a)) sliced across D, pixels x M x D/8 bytes. Plane k holds
// bit k of T_p[d] = (S_p[d] - 1) mod 2^M, not of S_p[d] itself; sobol_row()
// and threshold() add the 1 back. bank_mode::rematerialize keeps only O(1)
// generator state per pixel and regenerates the thresholds inside the
// encode kernel.
//
// Construction. The constructor builds the threshold state from the seed,
// and uhd_model::load runs it again (model files keep only the seed), so
// the build is set-up cost on every start. Each Sobol pixel is one
// kernels::sobol_plane_row call: the pixel's stream is generated in
// aligned Gray-code blocks, quantized, and written straight into its bank
// planes, with its per-level counts (summed into the CDF sidecar) and its
// S = 0 mask (summed into Z0) from the same pass. No byte row is built.
// At 784 pixels it takes 2.2-2.4 ms at D = 1024 and 5.4-5.6 ms at
// D = 8192, direction table included (median of 11, AVX-512, pinned to
// one core of a 4-vCPU Xeon VM), against 11.5-12.1 and 53-55 ms when each
// value was generated, quantized, counted and transposed on its own. Rematerialize mode runs
// the same kernel into a one-pixel bank of its own for the counts only; a
// custom bank's byte rows are still counted and sliced value by value.
//
// Level-0 skip. A pixel at level 0 has an empty unary stream, so the Fig. 4
// comparator fires for it only where S_p[d] = 0, whatever the image. Hence,
// exactly, for every image
//     #{p : q_p >= S_p[d]} = Z0[d] + #{p : q_p >= 1, 1 <= S_p[d] <= q_p},
//     Z0[d] = #{p : S_p[d] = 0},
// and 1 <= S <= q is q - 1 >= T under the relabel (S = 0 becomes
// T = 2^M - 1, beyond every q - 1). Z0 is one set of bit-sliced counter
// planes built with the CDF sidecar; the stored encode starts its counters
// at Z0 and reads only the planes of the pixels at level >= 1.
//
// One stored count path. Every stored-mode encode goes through one private
// routine that takes a batch: it quantizes a sub-batch of images into one
// list buffer, then walks the bank one chunk (kernels::plane_chunk_words
// words, 512 dimensions; 200 KiB of planes at 784 pixels x M = 4) at a
// time and counts every image of the sub-batch over that chunk before the
// next one, so the bank is read once per sub-batch instead of once per
// image. That pays once the bank is past L2 (3 MiB at 784 x 8192): each
// chunk is read from L3 once and then served from L2 to the rest of the
// sub-batch. The counts end in one of two finishers: packed sign words
// (encode_sign_batch, encode_sign) or centred int32 added into one
// caller row per image (encode_add_batch, and through it encode and
// encode_batch). The int32 path has no image rows of its own: the
// trainer names each image's class accumulator as its row, so a fit adds
// every image's counts straight into its class.
//
// A sub-batch is at most sub_batch_images (32) images, the serve engine's
// default micro-batch, so a raw micro-batch is one sub-batch. The bound
// keeps the per-thread list buffer at 32 x pixels entries (200 KiB at 784
// pixels) however many images a caller passes: an encode_batch worker
// passes its whole range in one call, and a buffer sized to it would grow
// with the batch. 32 images already read the bank once per 32: at D = 8192
// a 32-image encode_add_batch took 27-29 us per image against 49-52 us
// one image at a time (best of 7 passes over 2,048 digits, one pinned
// core of a 4-vCPU AVX-512 VM); at D = 1024, where the bank fits in L2,
// the two were within noise.
//
// Four equivalent encode paths are provided:
//  * encode()        — the production path. Stored mode counts
//                      #{p : q_p >= S_p[d]} for every d with bitwise logic
//                      over the active pixels' planes on top of Z0
//                      (kernels::geq_plane_count, a bit-sliced comparator
//                      feeding a carry-save tree) and adds the centred
//                      bit-sliced counts into the zeroed int32 output
//                      (kernels::plane_count_center); rematerialize mode
//                      runs kernels::geq_rematerialize_accumulate. Both go
//                      through the runtime-dispatched uhd::kernels backend.
//                      encode_add_batch() is the batch form every int32
//                      encode runs through. encode_sign() and
//                      encode_sign_batch() are the binarized twins: in
//                      stored mode they compare the bit-sliced counts
//                      against the TOB directly (Fig. 5) and never form
//                      the int32 accumulator.
//  * encode_scalar() — the byte-at-a-time formulation, retained as the
//                      correctness oracle and the benchmark baseline
//  * encode_unary()  — the unary datapath. Its monotone_fast fidelity uses
//                      the O(1) comparator identity (a thermometer stream's
//                      value IS its popcount, so Fig. 4 reduces to an
//                      integer compare); gate_exact keeps the bit-faithful
//                      UST fetch + gate-level comparator.
//  * encode_exact()  — unquantized double comparison (reference for the
//                      quantization-error ablation)
// All integer paths are bit-identical by construction; tests enforce it.
#ifndef UHD_CORE_ENCODER_HPP
#define UHD_CORE_ENCODER_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "uhd/bitstream/stream_table.hpp"
#include "uhd/common/aligned_vector.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/core/config.hpp"
#include "uhd/data/dataset.hpp"
#include "uhd/hdc/hypervector.hpp"
#include "uhd/lowdisc/sobol.hpp"

namespace uhd::core {

/// How encode_unary() evaluates the Fig. 4 comparator.
enum class unary_fidelity {
    monotone_fast, ///< O(1) identity: value(stream) = popcount, so >= on
                   ///< streams is >= on quantized values
    gate_exact,    ///< bit-faithful UST fetch + gate-level comparator
};

/// Sobol-index-embedding level encoder (no position hypervectors).
class uhd_encoder {
public:
    /// Most images the stored count path lists and counts together: a
    /// longer batch is walked in sub-batches of this many (the serve
    /// engine's default micro-batch, serve::engine_options::max_batch).
    static constexpr std::size_t sub_batch_images = 32;

    /// Build the threshold state for images of `shape` and the unary stream
    /// table. With bank_mode::stored this builds the bit-plane bank (the
    /// BRAM of Fig. 3(a)) with one kernels::sobol_plane_row call per pixel
    /// — no byte row or byte bank ever exists; with
    /// bank_mode::rematerialize it keeps only O(1)
    /// generator state per pixel (compact direction numbers, the per-pixel
    /// digital shift, and the per-level fraction bounds) and the encode
    /// kernels regenerate threshold rows on the fly. Both modes are
    /// bit-identical on every encode path.
    uhd_encoder(const uhd_config& config, data::image_shape shape);

    /// Build with an externally supplied threshold bank (pixels x dim rows,
    /// values < config.quant_levels). This is the hook for the sequence-
    /// family ablation: identical datapath, different threshold source.
    /// The bank replaces the Sobol one (it is sliced into bit planes and
    /// dropped); encode_exact() remains Sobol-based. Requires
    /// bank_mode::stored — an arbitrary bank has no generator to
    /// rematerialize from.
    uhd_encoder(const uhd_config& config, data::image_shape shape,
                ld::quantized_sobol_bank custom_bank);

    /// Hypervector dimension D.
    [[nodiscard]] std::size_t dim() const noexcept { return config_.dim; }

    /// Pixel count H.
    [[nodiscard]] std::size_t pixels() const noexcept { return shape_.pixels(); }

    /// Image shape this encoder was built for.
    [[nodiscard]] const data::image_shape& shape() const noexcept { return shape_; }

    /// Active configuration.
    [[nodiscard]] const uhd_config& config() const noexcept { return config_; }

    /// Quantize an 8-bit intensity to xi levels (shared by all paths;
    /// table lookup, precomputed in the constructor).
    [[nodiscard]] std::uint8_t quantize_intensity(std::uint8_t intensity) const noexcept {
        return quant_lut_[intensity];
    }

    /// Fast path (dispatched kernels). With the default mean_intensity
    /// policy, out[d] = 2 * ones[d] - 2 * TOB(image) where ones[d] counts
    /// pixels with q(x_p) >= q(S_p[d]) and TOB is the image's expected
    /// popcount; with half_inputs, out[d] = 2 * ones[d] - H (the bipolar
    /// bundle sum_p L_p[d]). sign(out[d]) is the Fig. 5 class-hypervector
    /// bit. Bit-identical to encode_scalar(). Zero-fills `out` and runs as
    /// an encode_add_batch() of one image.
    void encode(std::span<const std::uint8_t> image, std::span<std::int32_t> out) const;

    /// Add encode(image i) into rows[i] for each of the `count` images
    /// stored back-to-back in `images` (each shape().pixels() bytes). Every
    /// row points at dim() int32 values; rows may repeat (images sharing a
    /// row add into it in turn), which is how the trainer bundles each
    /// image straight into its class accumulator. Stored mode counts the
    /// batch chunk by chunk in sub-batches of sub_batch_images and adds
    /// each chunk's centred counts into the rows, with no int32 image row
    /// in between; rematerialize mode encodes image by image into a
    /// per-thread row and adds it.
    void encode_add_batch(std::span<const std::uint8_t> images, std::size_t count,
                          std::span<std::int32_t* const> rows) const;

    /// The original byte-at-a-time formulation of encode(): the correctness
    /// oracle for the word-parallel kernels and the benchmark baseline.
    void encode_scalar(std::span<const std::uint8_t> image,
                       std::span<std::int32_t> out) const;

    /// Encode `count` images stored back-to-back in `images` (each
    /// shape().pixels() bytes) into `out` (count * dim() accumulators,
    /// image-major): each worker zero-fills its range of `out` and adds
    /// into it with one encode_add_batch() call. When `pool` is non-null the batch is
    /// split across its workers; results are bit-identical for every
    /// thread count.
    void encode_batch(std::span<const std::uint8_t> images, std::size_t count,
                      std::span<std::int32_t> out, thread_pool* pool = nullptr) const;

    /// Batch-encode a whole dataset (shape must match this encoder).
    void encode_batch(const data::dataset& set, std::span<std::int32_t> out,
                      thread_pool* pool = nullptr) const;

    /// The doubled binarization threshold 2*TOB used by encode() for this
    /// image under the configured policy (exposed for tests and the
    /// datapath simulator).
    [[nodiscard]] std::int32_t doubled_threshold(
        std::span<const std::uint8_t> image) const;

    /// Unary datapath. monotone_fast exploits the thermometer-code identity
    /// value(stream) = popcount(stream), collapsing the Fig. 4 comparator
    /// to the same quantized integer compare as encode() — O(H * D).
    /// gate_exact runs the UST fetch + gate-level comparator per
    /// (pixel, dim) — O(H * D * N), use small D in tests. Both fidelities
    /// are bit-identical to encode(); tests enforce it.
    void encode_unary(std::span<const std::uint8_t> image, std::span<std::int32_t> out,
                      unary_fidelity fidelity = unary_fidelity::monotone_fast) const;

    /// Reference path without quantization: compares x_p/255 >= S_p[d] in
    /// double precision (regenerates Sobol scalars on the fly).
    void encode_exact(std::span<const std::uint8_t> image,
                      std::span<std::int32_t> out) const;

    /// Encode and binarize (the image hypervector of Fig. 5): bit d is 1
    /// (element -1) exactly when encode()'s out[d] < 0. The one-image case
    /// of encode_sign_batch().
    [[nodiscard]] hdc::hypervector encode_sign(std::span<const std::uint8_t> image) const;

    /// Packed batch encode: `count` images stored back-to-back in `images`
    /// (each shape().pixels() bytes) into `out`, count rows of
    /// kernels::sign_words(dim()) words, image-major — row i is
    /// sign_binarize of encode(image i), tail bits zeroed. In stored mode
    /// the sign bits come straight from the bit-sliced counts, and each
    /// sub-batch of sub_batch_images is counted one bank chunk at a time
    /// (a batch of up to 32 reads the bank once); in rematerialize mode
    /// each row is the image's int32 encode + sign_binarize.
    void encode_sign_batch(std::span<const std::uint8_t> images, std::size_t count,
                           std::span<std::uint64_t> out) const;

    /// The quantized Sobol thresholds of pixel `p` (BRAM row), decoded from
    /// the bit planes as (T + 1) mod 2^M (stored) or regenerated
    /// (rematerialize) into a per-thread buffer: the span is valid until the
    /// calling thread's next sobol_row() call.
    [[nodiscard]] std::span<const std::uint8_t> sobol_row(std::size_t p) const;

    /// One quantized threshold S_p[d] — sobol_row(p)[d] without building the
    /// row: M plane bits plus the relabel's 1 (stored) or one Gray-code jump
    /// (rematerialize).
    [[nodiscard]] std::uint8_t threshold(std::size_t p, std::size_t d) const;

    /// The unary stream table (Fig. 3(c)).
    [[nodiscard]] const bs::unary_stream_table& stream_table() const noexcept {
        return ust_;
    }

    /// Direction-number table backing the Sobol bank.
    [[nodiscard]] const ld::sobol_directions& directions() const noexcept {
        return directions_;
    }

    /// Bytes of threshold state: the resident bit planes in stored mode
    /// (pixels x M x sign_words(D) x 8; the Z0 planes are a sidecar,
    /// counted in memory_bytes()), or the compact per-pixel generator state
    /// (direction-number prefixes + digital shifts + the shared bound table)
    /// in rematerialize mode.
    /// This is the O(pixels * D) -> O(pixels) term the rematerializing
    /// encoder shrinks; the bench footprint gate reads it directly.
    [[nodiscard]] std::size_t threshold_bytes() const noexcept;

    /// Heap footprint: threshold state + UST + direction table + the
    /// per-pixel CDF sidecar + the Z0 planes + the intensity quantization
    /// LUT — the exact uHD dynamic-memory term in Table I.
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

private:
    uhd_config config_;
    data::image_shape shape_;
    ld::sobol_directions directions_;
    // Threshold state, stored mode: plane_bits_ = M bit planes of
    // sign_words(dim) words per pixel holding T = (S - 1) mod 2^M, in the
    // kernels::plane_word_offset layout (empty in rematerialize mode — that
    // is the whole point).
    std::size_t plane_bits_ = 0;
    cache_aligned_vector<std::uint64_t> planes_;
    // Stored mode: Z0[d] = #{p : S_p[d] = 0} as count_planes(pixels)
    // bit-sliced counter planes of sign_words(dim) words — the base every
    // stored count starts from. Chunk-major, like a one-pixel bank of
    // count_planes(pixels) planes under kernels::plane_word_offset, so each
    // bank chunk's base is one contiguous block.
    cache_aligned_vector<std::uint64_t> zero_base_;
    bs::unary_stream_table ust_;
    // Threshold state, rematerialize mode: per-pixel generator state fed to
    // kernels::geq_rematerialize_accumulate. remat_dirs_ holds the first
    // dir_words_ = bit_width(dim) direction numbers of each pixel (all the
    // Gray-code stepping for indices < dim can touch), shifts_ the
    // per-pixel digital shift, and bound_table_[q] the largest raw fraction
    // that quantizes to <= q (ld::quantize_bounds).
    std::size_t dir_words_ = 0;
    std::vector<std::uint32_t> remat_dirs_; // pixels x dir_words_
    std::vector<std::uint32_t> shifts_;     // one per pixel
    std::vector<std::uint32_t> bound_table_; // quant_levels entries
    // cdf_counts_[p * xi + q] = #{d : S_p[d] <= q}; makes the
    // mean_intensity TOB the exact per-dimension mean of the popcounts
    // (one small popcount table per pixel, Fig. 3(a)'s BRAM sidecar).
    // Identical in both bank modes: both count the same generated rows at
    // construction (kernels::sobol_plane_row's level counts).
    std::vector<std::uint32_t> cdf_counts_;
    // quant_lut_[x] = quantize_unit(x / 255, xi) — one lookup per pixel on
    // the hot path instead of a double multiply + round.
    std::array<std::uint8_t, 256> quant_lut_{};

    // Per-pixel digital shift (the bank ctor's formula; 0 when unscrambled).
    [[nodiscard]] std::uint32_t pixel_shift(std::size_t p) const noexcept;
    // Regenerate pixel p's quantized threshold row (dim values) into `row`
    // (rematerialize mode's sobol_row() and threshold()).
    void materialize_row(std::size_t p, std::uint8_t* row) const;
    // Shared ctor tail: quantization LUT, the per-pixel CDF sidecar and, in
    // stored mode, the bit planes and Z0 — one pixel at a time, from
    // `custom`'s rows when given, else one kernels::sobol_plane_row call.
    void build_tables(const ld::quantized_sobol_bank* custom);
    // Quantize `image`, write its active list — {p, q_p - 1} for every pixel
    // with q_p >= 1, ascending — into `active` (room for pixels() entries)
    // and return the doubled threshold 2*TOB (doubled_threshold's value,
    // from the same pass). `n_active` receives the list length.
    [[nodiscard]] std::int32_t quantize_image(std::span<const std::uint8_t> image,
                                              kernels::active_pixel* active,
                                              std::size_t& n_active) const noexcept;
    // The stored count path, one sub-batch of at most sub_batch_images at a
    // time: quantize the sub-batch's images (each pixels() bytes) into one
    // list buffer, then for each bank chunk count q >= S as Z0 plus every
    // image's active pixels' q - 1 >= T over that chunk, and finish image
    // i's slice of the chunk: packed sign words into row i of `signs`
    // (sign_words(D) words per row) when `signs` is non-null, else the
    // centred int32 encode added into rows[i] (D per row).
    void count_stored(std::span<const std::uint8_t> images, std::size_t count,
                      std::uint64_t* signs, std::int32_t* const* rows) const;
    // Rematerialize mode: the int32 encode of one image into a per-thread
    // row, valid until the calling thread's next call.
    [[nodiscard]] std::span<const std::int32_t> encode_remat(
        std::span<const std::uint8_t> image) const;
};

} // namespace uhd::core

#endif // UHD_CORE_ENCODER_HPP

// Trained uHD classification model with serialization.
//
// A model bundles the deterministic encoder configuration with the trained
// class hypervectors. Because uHD's encoder is fully deterministic (Sobol
// directions from a seed — no iterative search), only the configuration and
// the class vectors need to be stored; the Sobol bank is rebuilt on load.
#ifndef UHD_CORE_MODEL_HPP
#define UHD_CORE_MODEL_HPP

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "uhd/core/encoder.hpp"
#include "uhd/data/metrics.hpp"
#include "uhd/hdc/classifier.hpp"

namespace uhd::core {

/// End-to-end uHD classifier: encoder + single-pass centroid model.
class uhd_model {
public:
    /// Untrained model for `classes` classes over images of `shape`.
    /// Defaults follow the paper's uHD formulation: non-binary Sigma L_i
    /// accumulation (raw sums) with integer-cosine inference.
    uhd_model(const uhd_config& config, data::image_shape shape, std::size_t classes,
              hdc::train_mode mode = hdc::train_mode::raw_sums,
              hdc::query_mode inference = hdc::query_mode::integer);

    // The classifier holds a non-owning pointer to encoder_, so the
    // compiler-generated copy/move would leave it aimed at the source
    // object (dangling once the source dies — NRVO hid this until a
    // caller genuinely moved a model). These rebind it. Nothing assigns a
    // model, so assignment is deleted rather than rebound too.
    uhd_model(const uhd_model& other);
    uhd_model(uhd_model&& other) noexcept;
    uhd_model& operator=(const uhd_model&) = delete;
    uhd_model& operator=(uhd_model&&) = delete;
    ~uhd_model() = default;

    /// Train on a dataset in one pass and return the model.
    [[nodiscard]] static uhd_model train(const uhd_config& config,
                                         const data::dataset& train_set,
                                         hdc::train_mode mode = hdc::train_mode::raw_sums,
                                         hdc::query_mode inference =
                                             hdc::query_mode::integer);

    /// Single-pass fit (may be called once on a fresh model).
    void fit(const data::dataset& train_set);

    /// Mini-batch thread-parallel fit: bit-identical to fit() for every
    /// thread count (see hdc::hd_classifier::fit_parallel).
    void fit_parallel(const data::dataset& train_set, thread_pool* pool = nullptr);

    /// Online update with one labeled image (dynamic training).
    void partial_fit(std::span<const std::uint8_t> image, std::size_t label);

    /// Predicted class of one image.
    [[nodiscard]] std::size_t predict(std::span<const std::uint8_t> image) const;

    /// Accuracy over a dataset; optionally fills a confusion matrix.
    /// Predictions run through the batch engine (pool-parallel when given).
    [[nodiscard]] double evaluate(const data::dataset& test,
                                  data::confusion_matrix* matrix = nullptr,
                                  thread_pool* pool = nullptr) const;

    /// AdaptHD-style retraining (see hdc::hd_classifier::retrain), in
    /// mini-batches over `pool` in binarized query mode: bit-identical to
    /// the sequential retrain, which a null pool or integer mode runs.
    std::size_t retrain(const data::dataset& train_set, std::size_t epochs,
                        thread_pool* pool, std::size_t batch_images = 256);

    /// Dynamic-dimension inference: answer through the early-exit cascade
    /// over the packed class memory, reading only a prefix of each class
    /// row when the policy's calibrated margin clears. The cascade's full-D
    /// stage equals binarized-mode prediction regardless of the model's
    /// configured query mode.
    [[nodiscard]] std::size_t predict_dynamic(
        std::span<const std::uint8_t> image, const hdc::dynamic_query_policy& policy,
        hdc::dynamic_query_stats* stats = nullptr) const;

    /// Calibrate an early-exit policy on held-out data for a target
    /// agreement rate with full-D inference (see
    /// hdc::hd_classifier::calibrate_dynamic).
    [[nodiscard]] hdc::dynamic_query_policy calibrate_dynamic(
        const data::dataset& holdout, double target_agreement,
        thread_pool* pool = nullptr) const;

    [[nodiscard]] const uhd_encoder& encoder() const noexcept { return encoder_; }
    [[nodiscard]] std::size_t classes() const noexcept { return classifier_.classes(); }

    /// Packed associative memory backing binarized-mode inference.
    [[nodiscard]] const hdc::class_memory& packed_class_memory() const noexcept {
        return classifier_.packed_class_memory();
    }

    /// Immutable copy of the model's read state (packed class memory +
    /// integer rows/norms + metadata). Every predict*/evaluate call above
    /// runs on this state already; a snapshot() copy answers bit-identically
    /// and stays valid while the model keeps training — it is what the
    /// serve layer (serve::inference_engine) publishes to concurrent
    /// readers. Serialization round-trips it: save() writes the class
    /// accumulators (the training state the snapshot is derived from), and
    /// load() re-finalizes, so a loaded model's snapshot() is bit-identical
    /// to the saved model's (tests/test_inference_snapshot.cpp, per
    /// backend).
    [[nodiscard]] hdc::inference_snapshot snapshot() const;

    /// Serialize to a binary stream (magic 'uHDm', versioned, ending in a
    /// CRC32C of every byte before it).
    void save(std::ostream& os) const;

    /// Save to a file path; throws on I/O failure. The model is written to
    /// a temp file beside `path`, synced and renamed over it, so a failed
    /// save leaves the previous file intact.
    void save_file(const std::string& path) const;

    /// Deserialize a model previously written by save(). Throws uhd::error
    /// on a corrupt stream, before building the encoder when a v3 or v4
    /// file's CRC32C does not match.
    [[nodiscard]] static uhd_model load(std::istream& is);

    /// Load from a file path; throws on I/O failure.
    [[nodiscard]] static uhd_model load_file(const std::string& path);

    /// Heap footprint of encoder tables + class vectors.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return encoder_.memory_bytes() + classifier_.memory_bytes();
    }

private:
    uhd_encoder encoder_;
    hdc::hd_classifier<uhd_encoder> classifier_;
};

} // namespace uhd::core

#endif // UHD_CORE_MODEL_HPP

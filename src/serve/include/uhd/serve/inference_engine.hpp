// Concurrent micro-batching serving engine over immutable inference
// snapshots — the "serve heavy traffic while learning online" layer.
//
// Architecture (RCU-style single-writer / many-readers):
//
//   clients ──submit()──▶ micro_batch_queue ──pop_batch()──▶ workers
//                                                              │
//   trainer ──partial_fit/retrain on its PRIVATE classifier    │ load
//      │                                                       ▼
//      └──publish(classifier.snapshot()) ──▶ snapshot_cell ◀───┘
//                       (shared_ptr<const inference_snapshot> slot)
//
// * The current snapshot lives in one snapshot_cell (atomic-shared_ptr
//   semantics, TSan-verifiable implementation — see snapshot_cell.hpp).
//   Readers (pool workers) load it once per micro-batch and answer every
//   request in the batch from that one immutable state, with no lock held
//   during inference; they never wait on training work and never observe
//   a half-updated model.
// * A drained micro-batch is answered with ONE block-kernel call whenever
//   the engine serves from the packed memory (binarized mode, or any
//   policy-configured engine): the requests are sign-binarized into one
//   contiguous packed block and pushed through the register-blocked
//   query-GEMM kernels (inference_snapshot::predict_packed_block /
//   dynamic_query_policy::answer_block), so each packed class row is
//   streamed once per query tile instead of once per request. Bit-identical
//   per request to the single-query paths; serve_stats::kernel_calls
//   counts the drain calls, so queries / kernel_calls is the effective
//   block utilization.
// * publish() is a single pointer swap. In-flight batches keep the
//   snapshot they already loaded (shared_ptr keeps it alive until the
//   last reader drops it); new batches see the new state. Queries are
//   therefore always answered by *some* fully-finalized snapshot — the
//   one current at batch start.
// * Training state never enters the engine: the trainer owns its
//   hd_classifier/uhd_model privately and hands in only snapshot()
//   copies. Correctness bar (tested, incl. under TSan): engine answers
//   are bit-identical to predict_encoded / predict_dynamic on the same
//   snapshot for every backend.
//
// Queries are pre-encoded int32 accumulators (encoding is
// encoder-specific and has its own batch engine); submit() returns a
// future, predict() is the blocking convenience. An engine configured
// with a dynamic_query_policy answers through the early-exit cascade
// instead of the full scan.
#ifndef UHD_SERVE_INFERENCE_ENGINE_HPP
#define UHD_SERVE_INFERENCE_ENGINE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "uhd/hdc/dynamic_query.hpp"
#include "uhd/hdc/inference_snapshot.hpp"
#include "uhd/serve/request_queue.hpp"
#include "uhd/serve/serve_stats.hpp"
#include "uhd/serve/snapshot_cell.hpp"

namespace uhd::core {
class uhd_encoder; // raw-query encode stage (engine_options::encoder)
} // namespace uhd::core

namespace uhd::serve {

/// Engine tuning knobs.
struct engine_options {
    /// Pool workers draining the request queue (>= 1).
    std::size_t workers = 2;
    /// Largest micro-batch one worker drains in one pass; the batch shares
    /// one snapshot load. Larger batches amortize more but lengthen the
    /// tail a burst adds to the last request in the batch.
    std::size_t max_batch = 32;
    /// Bounded backlog; producers block (backpressure) when it is full.
    std::size_t queue_capacity = 4096;
    /// Optional raw-feature encoder: when set, the engine accepts raw
    /// pixel queries through try_submit_raw() and its workers encode each
    /// drained raw micro-batch with ONE encode call before answering — the
    /// off-loop encode stage: encode_sign_batch straight into packed query
    /// rows on a binarized snapshot, encode_batch into int32 accumulators
    /// on an integer one. The encoder must
    /// outlive the engine and produce dim() accumulators; encoders are
    /// immutable after construction, so concurrent worker use is safe.
    const core::uhd_encoder* encoder = nullptr;
};

/// Completion callback for the wire-path submit: invoked exactly once, from
/// a worker thread, with the predicted label and the version() of the
/// snapshot that answered — or with a non-null exception_ptr (label/version
/// are then meaningless). Callbacks must be cheap and non-blocking: they run
/// inside the worker's drain loop (the wire front-end just queues the
/// completion and signals its event loop).
using answer_callback = std::function<void(
    std::size_t label, std::uint64_t snapshot_version, std::exception_ptr error)>;

/// Micro-batching query server over an atomically swappable snapshot.
class inference_engine {
public:
    /// Start `options.workers` workers serving `initial`.
    explicit inference_engine(hdc::inference_snapshot initial,
                              engine_options options = {});

    /// Same, answering through the early-exit cascade: `policy` must match
    /// the snapshot's row width (and every snapshot published later — the
    /// engine enforces fixed geometry across publishes). Like
    /// hd_classifier::predict_dynamic, the cascade always answers from the
    /// packed associative memory regardless of the snapshot's query_mode:
    /// a policy-configured engine over an integer-mode snapshot serves the
    /// binarized cascade answers, not the integer cosine ones (tested —
    /// bit-identical to predict_dynamic_encoded either way).
    inference_engine(hdc::inference_snapshot initial,
                     hdc::dynamic_query_policy policy,
                     engine_options options = {});

    inference_engine(const inference_engine&) = delete;
    inference_engine& operator=(const inference_engine&) = delete;

    /// stop()s and joins the workers.
    ~inference_engine();

    /// Swap in a new snapshot (single atomic pointer store). The trainer's
    /// publish path: geometry and query mode must match the engine's.
    /// In-flight batches finish on the snapshot they hold; the swap never
    /// waits for them.
    void publish(hdc::inference_snapshot next);

    /// The snapshot currently answering new batches. Holding the returned
    /// pointer pins that state — queries predicted against it directly are
    /// self-consistent even across concurrent publishes.
    [[nodiscard]] std::shared_ptr<const hdc::inference_snapshot> current() const;

    /// Enqueue one pre-encoded query (dim() int32 values; the vector is
    /// moved into the request). The future yields the predicted class, or
    /// rethrows if the engine is stopped before the request is served.
    /// Throws uhd::error on a size mismatch or when already stopped.
    [[nodiscard]] std::future<std::size_t> submit(std::vector<std::int32_t> encoded);

    /// Blocking convenience: submit + wait. The span is copied into the
    /// request; prefer submit() with a moved vector, or the scratch
    /// overload below, on hot paths.
    [[nodiscard]] std::size_t predict(std::span<const std::int32_t> encoded);

    /// Allocation-reusing predict: the span is copied into `scratch`
    /// (reusing its capacity — no allocation once warm), the request moves
    /// the buffer through the queue, and the worker hands the allocation
    /// back into `scratch` before fulfilling the future. The promise/future
    /// edge sequences the handoff, so when this returns the caller owns the
    /// (repopulated) scratch again and the next call is allocation-free.
    [[nodiscard]] std::size_t predict(std::span<const std::int32_t> encoded,
                                      std::vector<std::int32_t>& scratch);

    /// Non-blocking wire-path enqueue: never waits for queue capacity, and
    /// answers through `done` instead of a future, so a single-threaded
    /// event loop can feed the engine without stalling or parking a thread
    /// per request. On success returns true and `encoded` is moved from; on
    /// a full queue returns false, `encoded` is left intact in the caller's
    /// hands (park it and retry after a completion frees a slot), and
    /// `done` is never invoked. Throws uhd::error on a size mismatch, on a
    /// stopped engine, or when `dynamic` is requested without a policy.
    ///
    /// Per-request routing (unlike submit(), which always answers through
    /// the engine's configured default): `dynamic = false` answers with the
    /// full scan (predict_encoded semantics) even on a policy-configured
    /// engine; `dynamic = true` answers through the early-exit cascade
    /// (predict_dynamic_encoded semantics). A drained micro-batch holding
    /// both kinds is answered with one block-kernel call per kind.
    [[nodiscard]] bool try_submit(std::vector<std::int32_t>& encoded,
                                  answer_callback done, bool dynamic = false);

    /// Non-blocking raw-feature enqueue (wire path): same contract as
    /// try_submit, but the payload is raw pixels (raw_pixels() bytes) and a
    /// worker encodes it off the caller's thread — drained raw requests are
    /// batch-encoded with one encode call per micro-batch (packed sign rows
    /// on a binarized snapshot), then answered through the usual block
    /// path. On a full queue returns false
    /// with `raw` handed back intact. Throws uhd::error on a size mismatch,
    /// on an engine without an encoder, on a stopped engine, or when
    /// `dynamic` is requested without a policy.
    [[nodiscard]] bool try_submit_raw(std::vector<std::uint8_t>& raw,
                                      answer_callback done,
                                      bool dynamic = false);

    /// Whether this engine can answer dynamic (early-exit cascade) requests
    /// — i.e. it was constructed with a dynamic_query_policy.
    [[nodiscard]] bool dynamic_capable() const noexcept {
        return policy_.has_value();
    }

    /// Whether this engine accepts raw-feature queries (engine_options
    /// carried an encoder).
    [[nodiscard]] bool raw_capable() const noexcept {
        return encoder_ != nullptr;
    }

    /// Raw query payload size in bytes (0 when !raw_capable()).
    [[nodiscard]] std::size_t raw_pixels() const noexcept;

    /// Point-in-time counters (see serve_stats for the consistency note).
    [[nodiscard]] serve_stats stats() const;

    /// Geometry served by this engine (fixed across publishes).
    [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
    [[nodiscard]] std::size_t classes() const noexcept { return classes_; }

    /// Close the queue, serve the backlog, join the workers. Unserved
    /// requests (none, once the backlog drains) would see broken-promise
    /// futures. Idempotent and safe against concurrent callers (a racing
    /// stop() blocks until the first one has joined); called by the
    /// destructor.
    void stop();

private:
    struct request {
        std::vector<std::int32_t> encoded;
        std::vector<std::uint8_t> raw;    ///< raw pixels, encoded by the
                                          ///< worker's encode stage (into a
                                          ///< packed row, or into `encoded`
                                          ///< on an integer-mode engine)
        std::promise<std::size_t> answer; ///< future path (on_done empty)
        answer_callback on_done;          ///< wire path; answers via callback
        std::vector<std::int32_t>* reclaim = nullptr; ///< scratch-predict:
                                          ///< worker moves `encoded` back
                                          ///< here before answering
        bool dynamic = false;             ///< answer through the cascade
        std::size_t label = 0;            ///< the answer, once computed
        std::exception_ptr error;         ///< set when a stage failed it;
                                          ///< later stages skip it
    };

    void start_workers(std::size_t workers);
    void worker_loop();
    /// Deliver one request's label or error through its callback or
    /// promise (hands the encoded buffer back through req.reclaim first,
    /// when set).
    static void deliver(request& req, std::uint64_t version);

    // Snapshot geometry, pinned at construction: publish() enforces it so
    // a worker mid-batch can never see a dimension change under its feet.
    std::size_t dim_ = 0;
    std::size_t classes_ = 0;
    hdc::query_mode mode_;

    snapshot_cell current_;
    std::optional<hdc::dynamic_query_policy> policy_;
    const core::uhd_encoder* encoder_ = nullptr;
    micro_batch_queue<request> queue_;
    std::size_t max_batch_;
    serve_counters counters_;
    std::vector<std::thread> workers_;
    std::atomic<bool> stopped_{false};
    std::mutex stop_mutex_; ///< serializes stop() callers around the joins
};

} // namespace uhd::serve

#endif // UHD_SERVE_INFERENCE_ENGINE_HPP

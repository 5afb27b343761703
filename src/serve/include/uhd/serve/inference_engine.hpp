// Concurrent micro-batching serving engine over immutable inference
// snapshots — the "serve heavy traffic while learning online" layer.
//
// Architecture (RCU-style single-writer / many-readers):
//
//   clients ──try_submit()──▶ micro_batch_queue ──pop_batch()──▶ workers
//      ▲                                                            │
//      └──── answer_sink::deliver(): one call per batch per sink ◀──┤
//                                                                   │ load
//   trainer ──partial_fit/retrain on its PRIVATE classifier         │
//      │                                                            ▼
//      └──publish(classifier.snapshot()) ──▶ snapshot_cell ◀────────┘
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
//   policy-configured engine): the requests' sign words are gathered into
//   one contiguous packed block and pushed through the register-blocked
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
// A request views its query; it does not own it. The view is in the form
// its route reads: sign words on a packed route (a full scan on a
// binarized snapshot, or any cascade), int32 accumulators on the one
// route that reads them (a full scan on an integer-mode snapshot), or, on
// an engine with an encoder, raw pixels that the workers batch-encode. So
// a pre-encoded query is sign-binarized once, by whoever submits it, and
// no worker ever binarizes. Every request is answered through an
// answer_sink: after a micro-batch is answered, its worker hands each
// sink all of that batch's answers for it in ONE deliver() call — the
// wire front-end's reactors are sinks, so a batch costs them one mailbox
// lock and at most one wake-up, not one per request. submit()/predict()
// (futures) and the callback try_submit()/try_submit_raw() are
// one-request adapters over the same path: each owns its payload in the
// sink it allocates per request. An engine configured with a
// dynamic_query_policy answers through the early-exit cascade instead of
// the full scan.
#ifndef UHD_SERVE_INFERENCE_ENGINE_HPP
#define UHD_SERVE_INFERENCE_ENGINE_HPP

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
#include <utility>
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
    /// Bounded backlog; when it is full, submit() blocks and try_submit()
    /// refuses (backpressure).
    std::size_t queue_capacity = 4096;
    /// Optional raw-feature encoder: when set, the engine accepts raw
    /// pixel queries (sink_request::raw, try_submit_raw()) and its workers
    /// encode each drained raw micro-batch with ONE encode call before
    /// answering — the off-loop encode stage: encode_sign_batch straight
    /// into packed query rows on a binarized snapshot, encode_batch into
    /// int32 accumulators on an integer one. The encoder must outlive the
    /// engine and produce dim() accumulators; encoders are immutable after
    /// construction, so concurrent worker use is safe.
    const core::uhd_encoder* encoder = nullptr;
};

/// Caller-chosen identity of one sink-routed request, handed back verbatim
/// with its answer. Two opaque words: the wire front-end keeps its 64-bit
/// connection id in `owner` and the request id plus reply opcode in `item`.
struct answer_tag {
    std::uint64_t owner = 0;
    std::uint64_t item = 0;
};

/// One answered request, as a sink receives it.
struct answer {
    answer_tag tag;
    std::size_t label = 0;             ///< predicted class (error == nullptr)
    std::uint64_t snapshot_version = 0; ///< version() of the answering snapshot
    std::exception_ptr error;          ///< non-null when a stage failed the
                                       ///< request; label/version meaningless
};

/// Receiver of answers. A worker calls deliver() once per micro-batch per
/// sink, with every answer of that batch routed to the sink (in submit
/// order), and never touches the sink again for those requests. deliver()
/// must be cheap and must not wait on new work entering the engine: it
/// runs inside the worker's drain loop. The engine holds a sink by address
/// until its last answer is delivered, so sinks are neither copied nor
/// moved.
class answer_sink {
public:
    answer_sink(const answer_sink&) = delete;
    answer_sink& operator=(const answer_sink&) = delete;

    virtual void deliver(std::span<const answer> answers) noexcept = 0;

protected:
    answer_sink() = default;
    ~answer_sink() = default;
};

/// One request of a batch try_submit(): a view of its query, in exactly
/// one of three forms. The submitter keeps the viewed bytes alive, and
/// unchanged, until the request's answer is delivered.
struct sink_request {
    /// raw_pixels() bytes, encoded by the workers' encode stage.
    std::span<const std::uint8_t> raw;
    /// A packed route's query: sign_words(dim()) words, bit d set iff
    /// value d is negative (the kernels::sign_binarize layout), tail bits
    /// past dim() zero.
    std::span<const std::uint64_t> packed;
    /// dim() int32 accumulators, only for a full scan on an integer-mode
    /// snapshot (the one route that reads them).
    std::span<const std::int32_t> encoded;
    answer_tag tag;       ///< echoed in the answer
    bool dynamic = false; ///< answer through the cascade (needs a policy)
};

/// Completion callback of the one-request try_submit adapters: invoked
/// exactly once, from a worker thread, with the predicted label and the
/// version() of the snapshot that answered — or with a non-null
/// exception_ptr (label/version are then meaningless). Same rules as
/// answer_sink::deliver: cheap, and never waiting on new engine work.
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

    /// Non-blocking batch enqueue, the wire path: never waits for queue
    /// capacity, so a single-threaded event loop can feed the engine
    /// without stalling. Pushes the longest prefix of `requests` that fits,
    /// under one queue lock with one notify, and returns its length; those
    /// requests will be answered through `sink`, which must outlive their
    /// delivery. The engine copies the views, not the payloads: the caller
    /// keeps each pushed request's bytes alive and unchanged until its
    /// answer is delivered, because a worker reads them then. The refused
    /// tail is not consumed (park it and retry after a completion frees a
    /// slot). Validates every request first and throws uhd::error —
    /// consuming nothing — unless it views exactly one payload of the right
    /// size and form for its route (packed on a packed_route(), int32
    /// otherwise, raw only with an encoder, a packed view's tail bits
    /// zero), on `dynamic` without a policy, or on a stopped engine.
    ///
    /// Per-request routing (unlike submit(), which always answers through
    /// the engine's configured default): `dynamic = false` answers with the
    /// full scan (predict_encoded semantics) even on a policy-configured
    /// engine; `dynamic = true` answers through the early-exit cascade
    /// (predict_dynamic_encoded semantics). A drained micro-batch holding
    /// both kinds is answered with one block-kernel call per kind. Raw
    /// requests are batch-encoded by the workers with one encode call per
    /// micro-batch (packed sign rows on a binarized snapshot), then
    /// answered through the same block path.
    [[nodiscard]] std::size_t try_submit(std::span<sink_request> requests,
                                         answer_sink& sink);

    /// One-request adapter: enqueue one pre-encoded query (dim() int32
    /// values), blocking while the queue is full, answered through the
    /// engine's default route. The request's sink owns the payload: on a
    /// packed route the values are sign-binarized here, on the calling
    /// thread, and only their sign words are kept; otherwise the vector
    /// moves into the sink. The future yields the predicted class, or
    /// rethrows the error of the stage that failed the request. Throws
    /// uhd::error on a size mismatch or when already stopped.
    [[nodiscard]] std::future<std::size_t> submit(std::vector<std::int32_t> encoded);

    /// Blocking convenience: submit a copy of the span + wait.
    [[nodiscard]] std::size_t predict(std::span<const std::int32_t> encoded);

    /// One-request adapter of the batch try_submit, answering through
    /// `done`, with its payload owned by the request's sink as in submit():
    /// true when queued (`encoded` is left empty); false on a full queue,
    /// with `encoded` handed back intact and `done` never invoked. Throws
    /// like the batch form, leaving `encoded` intact.
    [[nodiscard]] bool try_submit(std::vector<std::int32_t>& encoded,
                                  answer_callback done, bool dynamic = false);

    /// Same for a raw-pixel query (raw_pixels() bytes, moved into the sink).
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

    /// Whether a request with this `dynamic` flag is answered from sign
    /// words: through the cascade, or by the full scan of a binarized
    /// snapshot. A pre-encoded query on such a route must be submitted as
    /// its packed view; only the integer-mode full scan reads int32 values.
    [[nodiscard]] bool packed_route(bool dynamic) const noexcept {
        return dynamic || mode_ == hdc::query_mode::binarized;
    }

    /// Point-in-time counters (see serve_stats for the consistency note).
    [[nodiscard]] serve_stats stats() const;

    /// Geometry served by this engine (fixed across publishes).
    [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
    [[nodiscard]] std::size_t classes() const noexcept { return classes_; }

    /// Close the queue, serve the backlog, join the workers: every request
    /// accepted before stop() is delivered before it returns. Idempotent
    /// and safe against concurrent callers (a racing stop() blocks until
    /// the first one has joined); called by the destructor.
    void stop();

private:
    /// A queued request: the submitted view (raw pixels are encoded by the
    /// worker's encode stage into a packed row, or into an int32 row on the
    /// integer-mode full scan) plus where its answer goes.
    struct request : sink_request {
        request(const sink_request& query, answer_sink* to)
            : sink_request(query), sink(to) {}
        answer_sink* sink = nullptr;
        std::size_t label = 0;    ///< the answer, once computed
        std::exception_ptr error; ///< set when a stage failed it; later
                                  ///< stages skip it
    };

    void start_workers(std::size_t workers);
    void worker_loop();
    /// Throws uhd::error unless this engine can answer `req`.
    void check(const sink_request& req) const;

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
    std::mutex stop_mutex_; ///< serializes stop() callers around the joins
};

} // namespace uhd::serve

#endif // UHD_SERVE_INFERENCE_ENGINE_HPP

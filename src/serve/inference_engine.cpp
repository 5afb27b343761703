#include "uhd/serve/inference_engine.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "uhd/common/affinity.hpp"
#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/core/encoder.hpp"

namespace uhd::serve {

inference_engine::inference_engine(hdc::inference_snapshot initial,
                                   engine_options options)
    : dim_(initial.dim()), classes_(initial.classes()), mode_(initial.mode()),
      current_(std::make_shared<const hdc::inference_snapshot>(std::move(initial))),
      encoder_(options.encoder), queue_(options.queue_capacity),
      max_batch_(options.max_batch == 0 ? 1 : options.max_batch) {
    UHD_REQUIRE(dim_ >= 1, "engine needs a non-empty snapshot");
    UHD_REQUIRE(encoder_ == nullptr || encoder_->dim() == dim_,
                "engine encoder dim does not match the snapshot");
    start_workers(options.workers);
}

inference_engine::inference_engine(hdc::inference_snapshot initial,
                                   hdc::dynamic_query_policy policy,
                                   engine_options options)
    : dim_(initial.dim()), classes_(initial.classes()), mode_(initial.mode()),
      current_(std::make_shared<const hdc::inference_snapshot>(std::move(initial))),
      policy_(std::move(policy)), encoder_(options.encoder),
      queue_(options.queue_capacity),
      max_batch_(options.max_batch == 0 ? 1 : options.max_batch) {
    UHD_REQUIRE(dim_ >= 1, "engine needs a non-empty snapshot");
    UHD_REQUIRE(encoder_ == nullptr || encoder_->dim() == dim_,
                "engine encoder dim does not match the snapshot");
    // Policies are keyed on the row width; a mismatched one would fail on
    // the first query — fail at construction instead.
    UHD_REQUIRE(policy_->full_words() == current_.load()->words_per_class(),
                "dynamic policy row width does not match the snapshot");
    start_workers(options.workers);
}

inference_engine::~inference_engine() { stop(); }

void inference_engine::start_workers(std::size_t workers) {
    if (workers == 0) workers = 1;
    // Resolve UHD_AFFINITY on the constructing thread so a bad value throws
    // here, not inside a worker (pin_this_thread is noexcept).
    (void)resolved_affinity();
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

void inference_engine::publish(hdc::inference_snapshot next) {
    UHD_REQUIRE(next.dim() == dim_ && next.classes() == classes_,
                "published snapshot geometry mismatch");
    UHD_REQUIRE(next.mode() == mode_, "published snapshot query-mode mismatch");
    // The whole swap: one pointer store in the cell. Readers that already
    // loaded the old snapshot keep it alive through their shared_ptr; the
    // old state is freed when the last of them finishes.
    current_.store(std::make_shared<const hdc::inference_snapshot>(std::move(next)));
    counters_.record_swap();
}

std::shared_ptr<const hdc::inference_snapshot> inference_engine::current() const {
    return current_.load();
}

std::future<std::size_t> inference_engine::submit(
    std::vector<std::int32_t> encoded) {
    UHD_REQUIRE(encoded.size() == dim_, "encoded query size mismatch");
    UHD_REQUIRE(!stopped_.load(std::memory_order_acquire),
                "submit() on a stopped engine");
    request req;
    req.encoded = std::move(encoded);
    // The future path keeps the engine's configured default: a policy
    // engine answers through the cascade, a plain one with the full scan.
    req.dynamic = policy_.has_value();
    std::future<std::size_t> result = req.answer.get_future();
    if (!queue_.push(std::move(req))) {
        // Raced with stop(): the request never entered the queue.
        throw uhd::error("submit() on a stopped engine");
    }
    return result;
}

bool inference_engine::try_submit(std::vector<std::int32_t>& encoded,
                                  answer_callback done, bool dynamic) {
    UHD_REQUIRE(encoded.size() == dim_, "encoded query size mismatch");
    UHD_REQUIRE(done != nullptr, "try_submit() needs a completion callback");
    UHD_REQUIRE(!dynamic || policy_.has_value(),
                "dynamic request on an engine without a dynamic policy");
    UHD_REQUIRE(!stopped_.load(std::memory_order_acquire),
                "try_submit() on a stopped engine");
    request req;
    req.encoded = std::move(encoded);
    req.on_done = std::move(done);
    req.dynamic = dynamic;
    switch (queue_.try_push(std::move(req))) {
    case push_result::pushed:
        return true;
    case push_result::full:
        // Hand the payload back untouched so the caller can park + retry.
        encoded = std::move(req.encoded);
        return false;
    case push_result::closed:
    default:
        throw uhd::error("try_submit() on a stopped engine");
    }
}

bool inference_engine::try_submit_raw(std::vector<std::uint8_t>& raw,
                                      answer_callback done, bool dynamic) {
    UHD_REQUIRE(encoder_ != nullptr,
                "raw submit on an engine without an encoder");
    UHD_REQUIRE(raw.size() == encoder_->pixels(), "raw query size mismatch");
    UHD_REQUIRE(done != nullptr, "try_submit_raw() needs a completion callback");
    UHD_REQUIRE(!dynamic || policy_.has_value(),
                "dynamic request on an engine without a dynamic policy");
    UHD_REQUIRE(!stopped_.load(std::memory_order_acquire),
                "try_submit_raw() on a stopped engine");
    request req;
    req.raw = std::move(raw);
    req.on_done = std::move(done);
    req.dynamic = dynamic;
    switch (queue_.try_push(std::move(req))) {
    case push_result::pushed:
        return true;
    case push_result::full:
        // Hand the payload back untouched so the caller can park + retry.
        raw = std::move(req.raw);
        return false;
    case push_result::closed:
    default:
        throw uhd::error("try_submit_raw() on a stopped engine");
    }
}

std::size_t inference_engine::predict(std::span<const std::int32_t> encoded) {
    return submit(std::vector<std::int32_t>(encoded.begin(), encoded.end())).get();
}

std::size_t inference_engine::predict(std::span<const std::int32_t> encoded,
                                      std::vector<std::int32_t>& scratch) {
    UHD_REQUIRE(encoded.size() == dim_, "encoded query size mismatch");
    UHD_REQUIRE(!stopped_.load(std::memory_order_acquire),
                "predict() on a stopped engine");
    scratch.assign(encoded.begin(), encoded.end()); // reuses capacity
    request req;
    req.encoded = std::move(scratch);
    req.reclaim = &scratch;
    req.dynamic = policy_.has_value();
    std::future<std::size_t> result = req.answer.get_future();
    if (!queue_.push(std::move(req))) {
        throw uhd::error("predict() on a stopped engine");
    }
    // The worker moves the buffer back into `scratch` before set_value, and
    // get() happens-after set_value, so the caller re-owns the allocation
    // (now warm) the moment this returns.
    return result.get();
}

std::size_t inference_engine::raw_pixels() const noexcept {
    return encoder_ == nullptr ? 0 : encoder_->pixels();
}

serve_stats inference_engine::stats() const {
    return counters_.load(current_.load()->version());
}

void inference_engine::stop() {
    stopped_.store(true, std::memory_order_release);
    queue_.close();
    // Serialize concurrent stop() callers (e.g. an explicit shutdown path
    // racing the destructor): exactly one thread joins and clears the
    // workers, any other blocks here until that is done.
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    for (std::thread& worker : workers_) {
        if (worker.joinable()) worker.join();
    }
    workers_.clear();
}

void inference_engine::deliver(request& req, std::uint64_t version) {
    // Scratch-predict handoff: return the encoded buffer BEFORE the promise
    // is fulfilled — set_value/get() is the synchronization edge that makes
    // the caller's read of *reclaim race-free.
    if (req.reclaim != nullptr) *req.reclaim = std::move(req.encoded);
    if (req.on_done) {
        // Wire-path callbacks are documented cheap and non-throwing; a
        // throw here must not take down the worker (it would strand every
        // later request in the drained batch), so swallow defensively.
        try {
            if (req.error != nullptr) {
                req.on_done(0, 0, req.error);
            } else {
                req.on_done(req.label, version, nullptr);
            }
        } catch (...) { // NOLINT(bugprone-empty-catch)
        }
    } else if (req.error != nullptr) {
        req.answer.set_exception(req.error);
    } else {
        req.answer.set_value(req.label);
    }
}

void inference_engine::worker_loop() {
    pin_this_thread(); // UHD_AFFINITY=auto: distinct core per worker
    std::vector<request> batch;
    // Worker-local block scratch, reused across drains: the group index
    // list, the packed query block (one sign-binarized row per request),
    // the answer slots, and the encode-stage gather/output buffers.
    std::vector<std::size_t> group;
    std::vector<std::uint64_t> packed;
    std::vector<std::size_t> answers;
    std::vector<std::uint8_t> raw_gather;
    std::vector<std::int32_t> encoded_out;
    // A binarized engine encodes raw requests straight to packed sign rows:
    // raw_packed holds one row per raw request of the batch and raw_row[i]
    // is batch[i]'s row (no_row for pre-encoded requests). Integer-mode
    // engines keep the int32 stage — their full scan needs the accumulator.
    constexpr std::size_t no_row = ~std::size_t{0};
    const bool encode_packed = mode_ == hdc::query_mode::binarized;
    const std::size_t words = kernels::sign_words(dim_);
    std::vector<std::uint64_t> raw_packed;
    std::vector<std::size_t> raw_row;
    while (queue_.pop_batch(batch, max_batch_) != 0) {
        // One snapshot load per micro-batch: every request in the batch is
        // answered from the same immutable state, concurrent publishes
        // notwithstanding.
        const std::shared_ptr<const hdc::inference_snapshot> snap = current_.load();
        const std::uint64_t version = snap->version();
        std::uint64_t kernel_calls = 0;
        raw_row.assign(batch.size(), no_row);

        // Encode stage: raw requests in the drained batch are gathered into
        // one contiguous image block and pushed through ONE encode call —
        // encode_sign_batch into packed rows (binarized) or encode_batch
        // into int32 accumulators (integer) — so encoding is amortized
        // exactly like the distance kernels below, and bit-identical to the
        // single-image encode (tested per backend).
        if (encoder_ != nullptr) {
            group.clear();
            for (std::size_t i = 0; i < batch.size(); ++i) {
                if (!batch[i].raw.empty()) group.push_back(i);
            }
            if (!group.empty()) {
                const std::size_t pixels = encoder_->pixels();
                raw_gather.resize(group.size() * pixels);
                try {
                    for (std::size_t g = 0; g < group.size(); ++g) {
                        const std::vector<std::uint8_t>& raw = batch[group[g]].raw;
                        std::copy(raw.begin(), raw.end(),
                                  raw_gather.begin() +
                                      static_cast<std::ptrdiff_t>(g * pixels));
                    }
                    if (encode_packed) {
                        raw_packed.resize(group.size() * words);
                        encoder_->encode_sign_batch(
                            std::span<const std::uint8_t>(raw_gather), group.size(),
                            std::span<std::uint64_t>(raw_packed));
                        for (std::size_t g = 0; g < group.size(); ++g) {
                            raw_row[group[g]] = g;
                        }
                    } else {
                        encoded_out.resize(group.size() * dim_);
                        encoder_->encode_batch(
                            std::span<const std::uint8_t>(raw_gather), group.size(),
                            std::span<std::int32_t>(encoded_out));
                        for (std::size_t g = 0; g < group.size(); ++g) {
                            request& req = batch[group[g]];
                            req.encoded.assign(
                                encoded_out.begin() +
                                    static_cast<std::ptrdiff_t>(g * dim_),
                                encoded_out.begin() +
                                    static_cast<std::ptrdiff_t>((g + 1) * dim_));
                        }
                    }
                } catch (...) {
                    for (const std::size_t i : group) {
                        batch[i].error = std::current_exception();
                    }
                }
                counters_.record_encode(group.size());
            }
        }

        // Requests route per-request since the wire path arrived: a drained
        // batch may mix full-scan (dynamic == false) and cascade
        // (dynamic == true) requests; each kind is answered with its own
        // single block-kernel call, so a homogeneous batch still costs
        // exactly one call. The cascade always answers from the packed
        // memory; the full scan answers from packed memory in binarized
        // mode and falls back to per-request integer cosine otherwise.
        const auto answer_group = [&](bool dynamic) {
            group.clear();
            for (std::size_t i = 0; i < batch.size(); ++i) {
                // error: the encode stage already failed the request
                if (batch[i].dynamic == dynamic && batch[i].error == nullptr) {
                    group.push_back(i);
                }
            }
            if (group.empty()) return;
            if (!dynamic && mode_ == hdc::query_mode::integer) {
                // Integer full-cosine has no block kernel: per-request loop.
                for (const std::size_t i : group) {
                    request& req = batch[i];
                    try {
                        req.label = snap->predict_encoded(req.encoded);
                    } catch (...) {
                        req.error = std::current_exception();
                    }
                    ++kernel_calls;
                }
                return;
            }
            // ONE block-kernel call for the whole group: every request's
            // packed row — the encode stage's row for a raw request, the
            // sign-binarized accumulator otherwise — goes into one
            // contiguous block, then block-argmin (or the stage-synchronized
            // block cascade) runs over it. Bit-identical per request to the
            // single-query predict paths — submit pinned every encoded size
            // to dim(), so the group can only fail as a whole.
            packed.resize(group.size() * words);
            answers.resize(group.size());
            try {
                for (std::size_t g = 0; g < group.size(); ++g) {
                    const request& req = batch[group[g]];
                    std::uint64_t* row = packed.data() + g * words;
                    const std::size_t raw = raw_row[group[g]];
                    if (raw != no_row) {
                        std::copy_n(raw_packed.data() + raw * words, words, row);
                    } else {
                        kernels::sign_binarize(req.encoded.data(), req.encoded.size(),
                                               row);
                    }
                }
                const std::span<const std::uint64_t> block(packed.data(),
                                                           packed.size());
                if (dynamic) {
                    policy_->answer_block(*snap, block, group.size(), answers);
                } else {
                    snap->predict_packed_block(block, group.size(), answers);
                }
                for (std::size_t g = 0; g < group.size(); ++g) {
                    batch[group[g]].label = answers[g];
                }
            } catch (...) {
                for (const std::size_t i : group) {
                    batch[i].error = std::current_exception();
                }
            }
            ++kernel_calls;
        };
        answer_group(false);
        answer_group(true);
        // Count the micro-batch before delivering any of it: a client that
        // has read a reply and then asks for stats must see it counted.
        counters_.record_batch(batch.size(), kernel_calls);
        for (request& req : batch) deliver(req, version);
    }
}

} // namespace uhd::serve

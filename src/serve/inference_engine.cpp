#include "uhd/serve/inference_engine.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
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

namespace {

/// Base of the one-request adapters' sinks: it owns the request's payload
/// until the answer is delivered, and the queued request views it.
class owning_sink : public answer_sink {
public:
    std::vector<std::int32_t> encoded; ///< the integer-mode full scan's values
    std::vector<std::uint64_t> packed; ///< a packed route's sign words
    std::vector<std::uint8_t> raw;     ///< raw pixels

    /// Keep `values` as sign words, binarized on the calling thread.
    void binarize(std::span<const std::int32_t> values) {
        packed.resize(kernels::sign_words(values.size()));
        kernels::sign_binarize(values.data(), values.size(), packed.data());
    }

    /// The request viewing this payload.
    [[nodiscard]] sink_request request(bool dynamic) const {
        return {raw, packed, encoded, {}, dynamic};
    }

protected:
    owning_sink() = default;
    ~owning_sink() = default;
};

/// try_submit's one-request sink: invokes the callback, then frees itself.
class callback_sink final : public owning_sink {
public:
    explicit callback_sink(answer_callback done) : done_(std::move(done)) {}

    void deliver(std::span<const answer> answers) noexcept override {
        // Callbacks are documented cheap and non-throwing; a throw here must
        // not take down the worker (it would strand every later answer of
        // the batch), so swallow defensively.
        for (const answer& a : answers) {
            try {
                if (a.error != nullptr) {
                    done_(0, 0, a.error);
                } else {
                    done_(a.label, a.snapshot_version, nullptr);
                }
            } catch (...) { // NOLINT(bugprone-empty-catch)
            }
        }
        delete this;
    }

private:
    answer_callback done_;
};

/// submit()'s one-request sink: fulfils the future, then frees itself.
class promise_sink final : public owning_sink {
public:
    [[nodiscard]] std::future<std::size_t> future() { return answer_.get_future(); }

    void deliver(std::span<const answer> answers) noexcept override {
        const answer& a = answers.front();
        if (a.error != nullptr) {
            answer_.set_exception(a.error);
        } else {
            answer_.set_value(a.label);
        }
        delete this;
    }

private:
    std::promise<std::size_t> answer_;
};

/// The callback adapters' shared tail: submit `sink`'s one request. True
/// when queued (delivery then frees the sink). Otherwise the request was
/// not consumed: `give_back` hands the payload back to the caller before
/// the sink is freed here, and a rejection is rethrown.
template <typename GiveBack>
bool submit_one(inference_engine& engine, std::unique_ptr<callback_sink> sink,
                bool dynamic, GiveBack give_back) {
    sink_request req = sink->request(dynamic);
    std::size_t queued = 0;
    try {
        queued = engine.try_submit(std::span<sink_request>(&req, 1), *sink);
    } catch (...) {
        give_back(*sink);
        throw;
    }
    if (queued == 1) {
        (void)sink.release(); // delivery frees it
        return true;
    }
    give_back(*sink);
    return false;
}

} // namespace

void inference_engine::check(const sink_request& req) const {
    const int views = static_cast<int>(!req.raw.empty()) +
                      static_cast<int>(!req.packed.empty()) +
                      static_cast<int>(!req.encoded.empty());
    UHD_REQUIRE(views == 1, "a request must view exactly one query payload");
    if (!req.raw.empty()) {
        UHD_REQUIRE(encoder_ != nullptr, "raw submit on an engine without an encoder");
        UHD_REQUIRE(req.raw.size() == encoder_->pixels(), "raw query size mismatch");
    } else if (!req.packed.empty()) {
        UHD_REQUIRE(req.packed.size() == kernels::sign_words(dim_),
                    "packed query size mismatch");
        UHD_REQUIRE(dim_ % 64 == 0 || (req.packed.back() >> (dim_ % 64)) == 0,
                    "packed query has bits set past dim");
        UHD_REQUIRE(packed_route(req.dynamic),
                    "packed query on an integer-mode full scan");
    } else {
        UHD_REQUIRE(req.encoded.size() == dim_, "encoded query size mismatch");
        UHD_REQUIRE(!packed_route(req.dynamic),
                    "int32 query on a packed route: submit its sign words");
    }
    UHD_REQUIRE(!req.dynamic || policy_.has_value(),
                "dynamic request on an engine without a dynamic policy");
}

std::size_t inference_engine::try_submit(std::span<sink_request> requests,
                                         answer_sink& sink) {
    for (const sink_request& req : requests) check(req);
    const std::optional<std::size_t> pushed =
        queue_.try_push_batch(requests.size(), [&](std::size_t i) {
            return request(requests[i], &sink);
        });
    if (!pushed.has_value()) throw uhd::error("try_submit() on a stopped engine");
    return *pushed;
}

std::future<std::size_t> inference_engine::submit(
    std::vector<std::int32_t> encoded) {
    UHD_REQUIRE(encoded.size() == dim_, "encoded query size mismatch");
    // The future path keeps the engine's configured default: a policy
    // engine answers through the cascade, a plain one with the full scan.
    const bool dynamic = policy_.has_value();
    auto sink = std::make_unique<promise_sink>();
    if (packed_route(dynamic)) {
        sink->binarize(encoded);
    } else {
        sink->encoded = std::move(encoded);
    }
    request req(sink->request(dynamic), sink.get());
    check(req);
    std::future<std::size_t> result = sink->future();
    if (!queue_.push(std::move(req))) {
        throw uhd::error("submit() on a stopped engine");
    }
    (void)sink.release(); // delivery frees it
    return result;
}

std::size_t inference_engine::predict(std::span<const std::int32_t> encoded) {
    return submit(std::vector<std::int32_t>(encoded.begin(), encoded.end())).get();
}

bool inference_engine::try_submit(std::vector<std::int32_t>& encoded,
                                  answer_callback done, bool dynamic) {
    UHD_REQUIRE(done != nullptr, "try_submit() needs a completion callback");
    UHD_REQUIRE(encoded.size() == dim_, "encoded query size mismatch");
    auto sink = std::make_unique<callback_sink>(std::move(done));
    // A packed route keeps only the sign words; the caller's values are
    // then consumed by clearing them once the request is queued.
    const bool packed = packed_route(dynamic);
    if (packed) {
        sink->binarize(encoded);
    } else {
        sink->encoded = std::move(encoded);
    }
    const bool queued = submit_one(*this, std::move(sink), dynamic, [&](owning_sink& s) {
        if (!packed) encoded = std::move(s.encoded);
    });
    if (queued && packed) encoded.clear();
    return queued;
}

bool inference_engine::try_submit_raw(std::vector<std::uint8_t>& raw,
                                      answer_callback done, bool dynamic) {
    UHD_REQUIRE(done != nullptr, "try_submit() needs a completion callback");
    auto sink = std::make_unique<callback_sink>(std::move(done));
    sink->raw = std::move(raw);
    return submit_one(*this, std::move(sink), dynamic,
                      [&](owning_sink& s) { raw = std::move(s.raw); });
}

std::size_t inference_engine::raw_pixels() const noexcept {
    return encoder_ == nullptr ? 0 : encoder_->pixels();
}

serve_stats inference_engine::stats() const {
    return counters_.load(current_.load()->version());
}

void inference_engine::stop() {
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

void inference_engine::worker_loop() {
    pin_this_thread(); // UHD_AFFINITY=auto: distinct core per worker
    std::vector<request> batch;
    // Worker-local block scratch, reused across drains: the group index
    // list, the packed query block (one row per request), the answer
    // slots, and the encode stage's gather block.
    std::vector<std::size_t> group;
    std::vector<std::uint64_t> packed;
    std::vector<std::size_t> answers;
    std::vector<std::uint8_t> raw_gather;
    // The encode stage's output: raw_row[i] is batch[i]'s row (no_row for
    // a submitted view), in raw_packed on a packed route and in raw_values
    // on the integer-mode full scan.
    constexpr std::size_t no_row = ~std::size_t{0};
    const std::size_t words = kernels::sign_words(dim_);
    std::vector<std::uint64_t> raw_packed;
    std::vector<std::int32_t> raw_values;
    std::vector<std::size_t> raw_row;
    // Delivery scratch: the batch's request indices ordered by sink, and
    // one sink's answers.
    std::vector<std::size_t> by_sink;
    std::vector<answer> outbox;
    while (queue_.pop_batch(batch, max_batch_) != 0) {
        // One snapshot load per micro-batch: every request in the batch is
        // answered from the same immutable state, concurrent publishes
        // notwithstanding.
        const std::shared_ptr<const hdc::inference_snapshot> snap = current_.load();
        const std::uint64_t version = snap->version();
        std::uint64_t kernel_calls = 0;
        raw_row.assign(batch.size(), no_row);

        // Encode stage: the drained batch's raw requests whose routes read
        // the same form are gathered into one contiguous image block and
        // pushed through ONE encode call — encode_sign_batch into packed
        // rows on a packed route, encode_batch into int32 rows on the
        // integer-mode full scan — so encoding is amortized exactly like
        // the distance kernels below, and bit-identical to the single-image
        // encode (tested per backend). Only an integer-mode engine with a
        // policy can need both calls for one batch.
        if (encoder_ != nullptr) {
            for (const bool to_packed : {true, false}) {
                group.clear();
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    if (!batch[i].raw.empty() &&
                        packed_route(batch[i].dynamic) == to_packed) {
                        group.push_back(i);
                    }
                }
                if (group.empty()) continue;
                const std::size_t pixels = encoder_->pixels();
                raw_gather.resize(group.size() * pixels);
                try {
                    for (std::size_t g = 0; g < group.size(); ++g) {
                        std::ranges::copy(batch[group[g]].raw,
                                          raw_gather.begin() +
                                              static_cast<std::ptrdiff_t>(g * pixels));
                    }
                    const std::span<const std::uint8_t> images(raw_gather);
                    if (to_packed) {
                        raw_packed.resize(group.size() * words);
                        encoder_->encode_sign_batch(images, group.size(),
                                                    std::span<std::uint64_t>(raw_packed));
                    } else {
                        raw_values.resize(group.size() * dim_);
                        encoder_->encode_batch(images, group.size(),
                                               std::span<std::int32_t>(raw_values));
                    }
                    for (std::size_t g = 0; g < group.size(); ++g) {
                        raw_row[group[g]] = g;
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
            if (!packed_route(dynamic)) {
                // Integer full-cosine has no block kernel: per-request loop.
                for (const std::size_t i : group) {
                    request& req = batch[i];
                    const std::size_t row = raw_row[i];
                    try {
                        req.label = snap->predict_encoded(
                            row == no_row ? req.encoded
                                          : std::span<const std::int32_t>(
                                                raw_values.data() + row * dim_, dim_));
                    } catch (...) {
                        req.error = std::current_exception();
                    }
                    ++kernel_calls;
                }
                return;
            }
            // ONE block-kernel call for the whole group: every request's
            // packed row — the encode stage's row for a raw request, the
            // submitted sign words otherwise — goes into one contiguous
            // block, then block-argmin (or the stage-synchronized block
            // cascade) runs over it. Bit-identical per request to the
            // single-query predict paths — check() pinned every packed view
            // to sign_words(dim()), so the group can only fail as a whole.
            packed.resize(group.size() * words);
            answers.resize(group.size());
            try {
                for (std::size_t g = 0; g < group.size(); ++g) {
                    const request& req = batch[group[g]];
                    const std::size_t row = raw_row[group[g]];
                    std::copy_n(row == no_row ? req.packed.data()
                                              : raw_packed.data() + row * words,
                                words, packed.data() + g * words);
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
        // Delivery: each sink gets all of this batch's answers for it in
        // ONE deliver() call, in submit order (requests sorted by sink,
        // then by batch position; std::sort, unlike std::stable_sort,
        // allocates nothing).
        by_sink.resize(batch.size());
        std::iota(by_sink.begin(), by_sink.end(), std::size_t{0});
        std::sort(by_sink.begin(), by_sink.end(), [&](std::size_t a, std::size_t b) {
            const answer_sink* sa = batch[a].sink;
            const answer_sink* sb = batch[b].sink;
            return sa == sb ? a < b : std::less<>{}(sa, sb);
        });
        for (std::size_t i = 0; i < by_sink.size();) {
            answer_sink* sink = batch[by_sink[i]].sink;
            outbox.clear();
            for (; i < by_sink.size() && batch[by_sink[i]].sink == sink; ++i) {
                request& req = batch[by_sink[i]];
                outbox.push_back(
                    answer{req.tag, req.label, version, std::move(req.error)});
            }
            sink->deliver(outbox);
        }
    }
}

} // namespace uhd::serve

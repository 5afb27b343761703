// Bounded MPMC request queue with micro-batch draining — the admission
// path of the serving engine.
//
// Producers push one request at a time (push) or a run of them under one
// lock with one notify (try_push_batch, the wire front-end's path);
// consumers (pool workers) drain up to `max_batch` requests in one
// critical section, so a burst of concurrent queries is answered as a few
// batches — each batch loads the current inference snapshot once and
// amortizes the wake-up and pointer-chase over every request in it. A
// consumer that leaves items behind wakes the next one, so a batch push's
// single notify still reaches every idle worker it needs. The capacity
// bound gives backpressure: when readers fall behind, producers block (or
// are refused) instead of growing an unbounded backlog (tail latency
// becomes visible at the client, not hidden in a queue).
//
// close() wakes everyone: producers get `false`, consumers drain what is
// left and then get an empty batch — the engine's shutdown handshake.
#ifndef UHD_SERVE_REQUEST_QUEUE_HPP
#define UHD_SERVE_REQUEST_QUEUE_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "uhd/common/error.hpp"

namespace uhd::serve {

/// Bounded multi-producer/multi-consumer queue drained in micro-batches.
template <typename T>
class micro_batch_queue {
public:
    /// Queue admitting at most `capacity` waiting items.
    explicit micro_batch_queue(std::size_t capacity = 1024) : capacity_(capacity) {
        UHD_REQUIRE(capacity >= 1, "queue capacity must be positive");
    }

    micro_batch_queue(const micro_batch_queue&) = delete;
    micro_batch_queue& operator=(const micro_batch_queue&) = delete;

    /// Enqueue one item, blocking while the queue is full. Returns false
    /// (item dropped) when the queue is closed.
    bool push(T item) {
        std::unique_lock<std::mutex> lock(mutex_);
        not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
        if (closed_) return false;
        items_.push_back(std::move(item));
        lock.unlock();
        not_empty_.notify_one();
        return true;
    }

    /// Non-blocking batch enqueue for callers that must never stall (the
    /// epoll event loop of the wire front-end): appends make(0), make(1),
    /// ... while capacity lasts — at most `count` items, under one lock,
    /// with one notify. Returns how many were pushed; make() is called for
    /// exactly those, in order, so a refused tail is never touched and a
    /// throttled producer can park it and retry. Returns nullopt (make()
    /// never called) when the queue is closed.
    template <typename Make>
    [[nodiscard]] std::optional<std::size_t> try_push_batch(std::size_t count,
                                                            Make make) {
        std::size_t pushed = 0;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (closed_) return std::nullopt;
            while (pushed < count && items_.size() < capacity_) {
                items_.push_back(make(pushed));
                ++pushed;
            }
        }
        if (pushed != 0) not_empty_.notify_one();
        return pushed;
    }

    /// Drain up to `max_batch` items into `out` (cleared first), blocking
    /// until at least one item is available. Returns the batch size; 0 means
    /// closed-and-empty — the consumer's exit signal.
    std::size_t pop_batch(std::vector<T>& out, std::size_t max_batch) {
        out.clear();
        if (max_batch == 0) max_batch = 1;
        std::unique_lock<std::mutex> lock(mutex_);
        not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
        const std::size_t take = items_.size() < max_batch ? items_.size() : max_batch;
        for (std::size_t i = 0; i < take; ++i) {
            out.push_back(std::move(items_.front()));
            items_.pop_front();
        }
        const bool left_behind = !items_.empty();
        lock.unlock();
        // Every drained slot frees capacity; taken == 0 only at shutdown.
        if (take != 0) not_full_.notify_all();
        // A batch push notified one consumer; pass the wake-up on for what
        // this one left, or an idle worker would sleep beside a backlog.
        if (left_behind) not_empty_.notify_one();
        return take;
    }

    /// Close the queue: further push() calls fail, consumers drain the
    /// remaining backlog and then receive empty batches. Idempotent.
    void close() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        not_empty_.notify_all();
        not_full_.notify_all();
    }

    [[nodiscard]] bool closed() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    /// Items currently waiting (diagnostic; racy by nature).
    [[nodiscard]] std::size_t size() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

private:
    mutable std::mutex mutex_;
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    std::deque<T> items_;
    std::size_t capacity_;
    bool closed_ = false;
};

} // namespace uhd::serve

#endif // UHD_SERVE_REQUEST_QUEUE_HPP

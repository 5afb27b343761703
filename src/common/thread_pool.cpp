#include "uhd/common/thread_pool.hpp"

#include <cstdlib>
#include <exception>

namespace uhd {

thread_pool::thread_pool(std::size_t threads) {
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw == 0 ? 1 : hw;
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

thread_pool::~thread_pool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) worker.join();
}

void thread_pool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) return; // stop_ set and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void thread_pool::parallel_for(std::size_t n,
                               const std::function<void(std::size_t, std::size_t)>& fn) {
    if (n == 0) return;
    const std::size_t lanes = workers_.size() + 1; // workers plus the caller
    if (lanes == 1 || n == 1) {
        fn(0, n);
        return;
    }
    const std::size_t chunks = n < lanes ? n : lanes;
    const std::size_t base = n / chunks;
    const std::size_t extra = n % chunks;

    // All state the queued chunks touch lives on the caller's stack; the
    // caller cannot leave this function until `remaining` under `done_mutex`
    // reaches zero, which happens-after the last chunk's final access.
    struct state {
        std::size_t remaining;
        std::mutex done_mutex;
        std::condition_variable done;
        std::exception_ptr error;
    } shared_state;
    shared_state.remaining = chunks - 1;

    const auto run_chunk = [&](std::size_t begin, std::size_t end) {
        try {
            fn(begin, end);
        } catch (...) {
            const std::lock_guard<std::mutex> lock(shared_state.done_mutex);
            if (!shared_state.error) shared_state.error = std::current_exception();
        }
    };

    // Chunk c covers [c*base + min(c, extra), ...) — a contiguous partition
    // independent of which worker picks it up.
    std::size_t begin = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t c = 0; c + 1 < chunks; ++c) {
            const std::size_t end = begin + base + (c < extra ? 1 : 0);
            queue_.emplace_back([&run_chunk, &shared_state, begin, end] {
                run_chunk(begin, end);
                const std::lock_guard<std::mutex> done_lock(shared_state.done_mutex);
                if (--shared_state.remaining == 0) shared_state.done.notify_one();
            });
            begin = end;
        }
    }
    wake_.notify_all();

    run_chunk(begin, n); // last chunk on the calling thread

    std::unique_lock<std::mutex> lock(shared_state.done_mutex);
    shared_state.done.wait(lock, [&shared_state] { return shared_state.remaining == 0; });
    if (shared_state.error) std::rethrow_exception(shared_state.error);
}

std::size_t thread_pool::env_threads() noexcept {
    // Parsed directly (not via env_int, which throws on negatives): a value
    // like UHD_THREADS=-1 cast through size_t would request ~2^64 workers.
    // Anything non-positive, unparsable, or absurdly large (including
    // strtoll's LLONG_MAX overflow saturation) clamps to 0 = hardware
    // concurrency rather than asking the pool to spawn it.
    constexpr long long max_reasonable = 4096;
    const char* raw = std::getenv("UHD_THREADS");
    if (raw == nullptr || *raw == '\0') return 0;
    char* end = nullptr;
    const long long value = std::strtoll(raw, &end, 10);
    if (end == raw || value < 0 || value > max_reasonable) return 0;
    return static_cast<std::size_t>(value);
}

thread_pool& thread_pool::shared() {
    static thread_pool pool(env_threads());
    return pool;
}

} // namespace uhd

// Serving-engine counters: lock-free atomics updated by workers and the
// publisher, snapshotted into a plain struct for reporting.
#ifndef UHD_SERVE_SERVE_STATS_HPP
#define UHD_SERVE_SERVE_STATS_HPP

#include <atomic>
#include <cstdint>

namespace uhd::serve {

/// Point-in-time view of an engine's counters (plain data, safe to copy
/// around and print). Counters are each individually consistent; a view
/// taken mid-flight may be torn *across* fields (queries from one instant,
/// batches from the next) — fine for monitoring, quiesce first for exact
/// accounting.
struct serve_stats {
    std::uint64_t queries = 0;            ///< requests answered
    std::uint64_t batches = 0;            ///< micro-batches drained
    std::uint64_t kernel_calls = 0;       ///< distance-engine drain calls
                                          ///< (1 per batch on the block
                                          ///< path, batch size on the
                                          ///< per-query fallback)
    std::uint64_t snapshot_swaps = 0;     ///< publish() calls accepted
    std::uint64_t max_batch_observed = 0; ///< largest drained batch
    std::uint64_t snapshot_version = 0;   ///< version of the live snapshot
    std::uint64_t raw_queries = 0;        ///< requests that arrived as raw
                                          ///< features (encoded off-loop by
                                          ///< the worker's encode stage)
    std::uint64_t encode_kernel_calls = 0; ///< encode_batch drain calls
                                           ///< (1 per raw micro-batch)

    /// Effective block utilization: requests answered per distance-engine
    /// drain call (== avg micro-batch size when every batch takes the
    /// block path; 1.0 on the per-query fallback).
    [[nodiscard]] double block_utilization() const noexcept {
        return kernel_calls == 0 ? 0.0
                                 : static_cast<double>(queries) /
                                       static_cast<double>(kernel_calls);
    }

    /// Encode-stage utilization: raw requests encoded per encode_batch
    /// drain call — the same amortization measure as block_utilization,
    /// for the off-loop raw-query encode stage.
    [[nodiscard]] double encode_utilization() const noexcept {
        return encode_kernel_calls == 0
                   ? 0.0
                   : static_cast<double>(raw_queries) /
                         static_cast<double>(encode_kernel_calls);
    }
};

/// The engine's live counters. Relaxed ordering throughout: counters are
/// monotonic telemetry, not synchronization — snapshot publication has its
/// own acquire/release edge (the atomic shared_ptr swap).
class serve_counters {
public:
    void record_batch(std::uint64_t batch_size,
                      std::uint64_t kernel_calls) noexcept {
        queries_.fetch_add(batch_size, std::memory_order_relaxed);
        batches_.fetch_add(1, std::memory_order_relaxed);
        kernel_calls_.fetch_add(kernel_calls, std::memory_order_relaxed);
        // Monotonic max via CAS: several workers may race, the largest wins.
        std::uint64_t seen = max_batch_.load(std::memory_order_relaxed);
        while (batch_size > seen &&
               !max_batch_.compare_exchange_weak(seen, batch_size,
                                                 std::memory_order_relaxed)) {
        }
    }

    void record_swap() noexcept {
        swaps_.fetch_add(1, std::memory_order_relaxed);
    }

    /// One drained raw micro-batch: `raw` requests encoded through a
    /// single batch encode call (the off-loop encode stage).
    void record_encode(std::uint64_t raw) noexcept {
        raw_queries_.fetch_add(raw, std::memory_order_relaxed);
        encode_calls_.fetch_add(1, std::memory_order_relaxed);
    }

    [[nodiscard]] serve_stats load(std::uint64_t snapshot_version) const noexcept {
        serve_stats out;
        out.queries = queries_.load(std::memory_order_relaxed);
        out.batches = batches_.load(std::memory_order_relaxed);
        out.kernel_calls = kernel_calls_.load(std::memory_order_relaxed);
        out.snapshot_swaps = swaps_.load(std::memory_order_relaxed);
        out.max_batch_observed = max_batch_.load(std::memory_order_relaxed);
        out.snapshot_version = snapshot_version;
        out.raw_queries = raw_queries_.load(std::memory_order_relaxed);
        out.encode_kernel_calls = encode_calls_.load(std::memory_order_relaxed);
        return out;
    }

private:
    // Each counter sits on its own cache line (alignas(64)): the hot
    // worker-side counters (queries/batches/kernel_calls, bumped once per
    // drained micro-batch by every worker) must not false-share a line with
    // the publisher's swap counter or with max_batch_'s CAS loop — packed
    // into one line, every record_swap() invalidated the line every worker
    // increments through. Measured on this box (bench_serve defaults,
    // 4 clients x 2 workers + publishing trainer, 7 runs each): best
    // ~184k qps packed -> ~203k qps padded (~10%), medians ~151k -> ~180k
    // (run-to-run noise on a shared box is large; the direction held in
    // every aggregate). sizeof(serve_counters) grows 40 -> 320 bytes, one
    // instance per engine.
    alignas(64) std::atomic<std::uint64_t> queries_{0};
    alignas(64) std::atomic<std::uint64_t> batches_{0};
    alignas(64) std::atomic<std::uint64_t> kernel_calls_{0};
    alignas(64) std::atomic<std::uint64_t> swaps_{0};
    alignas(64) std::atomic<std::uint64_t> max_batch_{0};
    alignas(64) std::atomic<std::uint64_t> raw_queries_{0};
    alignas(64) std::atomic<std::uint64_t> encode_calls_{0};
};

} // namespace uhd::serve

#endif // UHD_SERVE_SERVE_STATS_HPP

// Wire front-end counters: relaxed atomics bumped by the reactor loops
// (and, for wake_writes, by engine workers), snapshotted into a plain
// struct. Same consistency contract as serve_stats: individually
// consistent, possibly torn across fields mid-flight — except the
// connection pair, which is always consistent: connections_active is
// accepted - closed, with closes read first (see wire_counters::load).
//
// Sharding: with N reactors the server keeps one wire_counters per
// reactor, and wire_server::stats() sums the shards on read
// (wire_stats::operator+=).
#ifndef UHD_NET_WIRE_STATS_HPP
#define UHD_NET_WIRE_STATS_HPP

#include <atomic>
#include <cstdint>

namespace uhd::net {

/// Point-in-time view of the wire counters (plain data, safe to copy) —
/// one reactor's shard, or the sum over all shards.
struct wire_stats {
    std::uint64_t connections_accepted = 0; ///< accept4() successes, shed
                                            ///< ones (closed at once) included
    std::uint64_t connections_active = 0;   ///< currently open connections
    std::uint64_t frames_in = 0;            ///< complete request frames parsed
    std::uint64_t frames_out = 0;           ///< reply/error frames queued
    std::uint64_t bytes_in = 0;             ///< bytes read off sockets
    std::uint64_t bytes_out = 0;            ///< bytes written to sockets
    std::uint64_t malformed_frames = 0;     ///< frames answered with op_error
    std::uint64_t throttle_events = 0;      ///< reads paused for backpressure
    std::uint64_t loop_cpu_ns = 0;          ///< CLOCK_THREAD_CPUTIME_ID of the
                                            ///< reactor thread (utilization =
                                            ///< loop_cpu_ns / wall time)
    std::uint64_t wake_writes = 0;          ///< completion eventfd writes; at
                                            ///< most one per engine micro-batch
                                            ///< per reactor
    std::uint64_t query_slots = 0;          ///< gauge: query payload slots
                                            ///< allocated (the reactors'
                                            ///< in-flight high-water marks)
    std::uint64_t query_slots_in_use = 0;   ///< gauge: slots holding a
                                            ///< predict not yet answered

    /// Shard aggregation: field-wise sum (all counters are additive,
    /// including active-connection gauges — each connection lives in
    /// exactly one shard).
    wire_stats& operator+=(const wire_stats& other) noexcept {
        connections_accepted += other.connections_accepted;
        connections_active += other.connections_active;
        frames_in += other.frames_in;
        frames_out += other.frames_out;
        bytes_in += other.bytes_in;
        bytes_out += other.bytes_out;
        malformed_frames += other.malformed_frames;
        throttle_events += other.throttle_events;
        loop_cpu_ns += other.loop_cpu_ns;
        wake_writes += other.wake_writes;
        query_slots += other.query_slots;
        query_slots_in_use += other.query_slots_in_use;
        return *this;
    }
};

/// Live counters behind wire_server::stats() — one shard per reactor.
/// Every field but wake_writes is written only by the shard's reactor loop
/// (frames_out of a predict reply too: the loop bumps it when it drains
/// the mailbox). wake_writes is bumped by the engine workers, under the
/// reactor's mailbox lock, when a delivery kicks the eventfd. stats() is
/// callable from any thread, so these are atomics; relaxed ordering —
/// telemetry, not synchronization.
///
/// The shard as a whole is alignas(64): adjacent shards in the reactor
/// array must not share a cache line, or reactor A's counter bumps would
/// ping-pong the line under reactor B (the same false-sharing pattern
/// measured on serve_counters, where padding bought ~10% wire qps on a
/// multi-core box), at the cost of padding each shard to whole cache lines
/// (128 bytes). Unlike serve_counters, fields within one shard share lines
/// on purpose — the loop is their main writer, and a worker's wake_writes
/// bump comes at most once per micro-batch.
class alignas(64) wire_counters {
public:
    void record_accept() noexcept {
        accepted_.fetch_add(1, std::memory_order_relaxed);
    }
    /// Count one close of a connection this shard accepted. Release pairs
    /// with load()'s acquire: a reader that sees this close also sees the
    /// accept before it.
    void record_close() noexcept {
        closed_.fetch_add(1, std::memory_order_release);
    }
    void record_frame_in() noexcept {
        frames_in_.fetch_add(1, std::memory_order_relaxed);
    }
    void record_frame_out() noexcept {
        frames_out_.fetch_add(1, std::memory_order_relaxed);
    }
    void record_bytes_in(std::uint64_t n) noexcept {
        bytes_in_.fetch_add(n, std::memory_order_relaxed);
    }
    void record_bytes_out(std::uint64_t n) noexcept {
        bytes_out_.fetch_add(n, std::memory_order_relaxed);
    }
    void record_malformed() noexcept {
        malformed_.fetch_add(1, std::memory_order_relaxed);
    }
    void record_throttle() noexcept {
        throttles_.fetch_add(1, std::memory_order_relaxed);
    }
    void record_wake_write() noexcept {
        wake_writes_.fetch_add(1, std::memory_order_relaxed);
    }
    /// Publish the reactor thread's cumulative CPU time (sampled by the
    /// loop once per epoll_wait round; an absolute store, not an add).
    void record_loop_cpu(std::uint64_t total_ns) noexcept {
        loop_cpu_ns_.store(total_ns, std::memory_order_relaxed);
    }
    /// Publish the reactor's slot pool gauges (absolute stores, made by
    /// the reactor after each change to its pool).
    void record_slots(std::uint64_t allocated, std::uint64_t in_use) noexcept {
        slots_.store(allocated, std::memory_order_relaxed);
        slots_in_use_.store(in_use, std::memory_order_relaxed);
    }

    /// connections_active is accepted - closed. Closes are read first
    /// (acquire), so every close counted has its accept counted too: active
    /// never wraps below zero, and accepted == n with active == 0 means all
    /// n connections have closed.
    [[nodiscard]] wire_stats load() const noexcept {
        wire_stats out;
        const std::uint64_t closed = closed_.load(std::memory_order_acquire);
        out.connections_accepted = accepted_.load(std::memory_order_relaxed);
        out.connections_active = out.connections_accepted - closed;
        out.frames_in = frames_in_.load(std::memory_order_relaxed);
        out.frames_out = frames_out_.load(std::memory_order_relaxed);
        out.bytes_in = bytes_in_.load(std::memory_order_relaxed);
        out.bytes_out = bytes_out_.load(std::memory_order_relaxed);
        out.malformed_frames = malformed_.load(std::memory_order_relaxed);
        out.throttle_events = throttles_.load(std::memory_order_relaxed);
        out.loop_cpu_ns = loop_cpu_ns_.load(std::memory_order_relaxed);
        out.wake_writes = wake_writes_.load(std::memory_order_relaxed);
        out.query_slots = slots_.load(std::memory_order_relaxed);
        out.query_slots_in_use = slots_in_use_.load(std::memory_order_relaxed);
        return out;
    }

private:
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> closed_{0}; // monotonic: active = accepted - closed
    std::atomic<std::uint64_t> frames_in_{0};
    std::atomic<std::uint64_t> frames_out_{0};
    std::atomic<std::uint64_t> bytes_in_{0};
    std::atomic<std::uint64_t> bytes_out_{0};
    std::atomic<std::uint64_t> malformed_{0};
    std::atomic<std::uint64_t> throttles_{0};
    std::atomic<std::uint64_t> loop_cpu_ns_{0};
    std::atomic<std::uint64_t> wake_writes_{0};
    std::atomic<std::uint64_t> slots_{0};
    std::atomic<std::uint64_t> slots_in_use_{0};
};

} // namespace uhd::net

#endif // UHD_NET_WIRE_STATS_HPP

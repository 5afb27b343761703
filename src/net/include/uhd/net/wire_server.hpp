// Epoll wire front-end for the serving engine — the "traffic actually
// reaches the process" layer.
//
// Threading model (sharded reactors, default 1):
//
//   clients ══ TCP ══▶ N reactor threads ──try_submit(batch)──▶ engine
//              (SO_REUSEPORT listeners;       │                 workers
//               epoll, edge-triggered,        │                    │
//               non-blocking accept4)         │                    │
//                     ▲      ▲                │                    │
//                     │      └── mailbox + eventfd ◀── deliver(), one
//                     └────────── write buffers        call per batch
//
// * The I/O layer owns no inference threads: each reactor runs one epoll
//   loop over the connections *it* accepted; inference parallelism stays
//   where it already lives (the engine's micro-batch workers).
// * Query payloads live in reactor-owned slots, not in per-request heap
//   vectors. Each reactor keeps a pool of fixed-size slots (sized at
//   start() from the engine's geometry) in pages that grow to its
//   in-flight high-water mark; a slot never moves while its reactor
//   lives. handle_predict puts each query into a slot once, in the form
//   its route reads, and submits a view of it: a pre-encoded query on a
//   packed route (a full scan on a binarized snapshot, or any cascade) is
//   sign-binarized there, so 128 B per query travel to the worker at
//   D = 1024 instead of 4 KiB of int32, and no worker binarizes; the
//   integer-mode full scan gets its int32 values; raw features are copied
//   in, and the worker gathers each drained micro-batch's raw requests
//   into one block for a single batch encode call, so encode throughput
//   scales with workers, not loops. The slot index rides in the answer
//   tag, which the engine echoes, and the slot returns to the pool when
//   its answer is drained (connection open or not), when
//   close_connection drops a parked tail, and at stop(), which first
//   waits until no worker still holds one of the reactor's requests.
//   Only the reactor touches its pool; the queue mutex orders its write
//   of a slot before a worker's read, and the mailbox mutex orders that
//   read before the slot's reuse (wire_stats::query_slots and
//   query_slots_in_use gauge the pools). An engine without an encoder
//   (!raw_capable()) answers raw predicts with an `unsupported` error
//   frame, trainer or not.
// * The framework is paid per micro-batch, not per request. Every
//   predict parsed from one read of a connection enters the engine in
//   one try_submit call (one queue lock, one notify). The reactor itself
//   is the answer_sink of its requests, and each request's answer_tag
//   carries the full connection id, the request id, the reply opcode and
//   the payload slot.
//   A worker hands a micro-batch's answers for one reactor over in one
//   deliver() call: one mailbox lock, one `outstanding` decrement, and
//   an eventfd write only when the mailbox was empty (counted by
//   wire_stats::wake_writes). The loop then swaps the mailbox with a
//   second buffer it owns, appends the replies, and re-pumps each
//   connection that got one, once. Workers never touch sockets and no
//   loop ever waits on inference.
// * Sharding: with N > 1 each reactor has its own SO_REUSEPORT listener
//   on the shared port (the kernel load-balances accepts), connection
//   table, completion mailbox + eventfd, and wire_counters shard
//   (stats() sums the shards). A connection lives its whole life on the
//   reactor that accepted it, so every per-connection invariant —
//   backpressure caps, write-buffer re-arming, poison handling, FIFO
//   order — holds per shard exactly as it did with one loop.
// * Backpressure is layered the way the queue contract wants it: the
//   engine queue is never blocked on. When a batch submit finds the queue
//   full, the refused tail is parked on its connection, in order; the
//   loop stops reading that socket (edge-triggered epoll makes "stop
//   reading" free), submits the tail before handling any other frame of
//   the connection, and retries it every loop round until the queue takes
//   it. A slow *reader* is throttled the same way: while a connection's
//   parsed-but-unanswered predicts reach its in-flight cap or its write
//   buffer is over the cap, its reads pause until completions drain /
//   EPOLLOUT flushes. Sockets throttle; the queue never deadlocks, other
//   connections never stall.
// * Malformed traffic: protocol-poisoning frames (bad magic/version,
//   oversized length) get one error frame, then the connection is
//   flushed and closed; per-request junk (unknown opcode, bad payload)
//   gets an error frame and the stream continues. Truncated frames
//   simply wait for more bytes; EOF mid-frame closes after in-flight
//   requests drain.
// * partial_fit may now arrive on any reactor, so trainer updates (and
//   the publish cadence counter) are serialized by one trainer mutex —
//   the only cross-reactor lock, and only on the training path.
#ifndef UHD_NET_WIRE_SERVER_HPP
#define UHD_NET_WIRE_SERVER_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "uhd/common/aligned_vector.hpp"
#include "uhd/core/model.hpp"
#include "uhd/net/socket.hpp"
#include "uhd/net/wire_format.hpp"
#include "uhd/net/wire_stats.hpp"
#include "uhd/serve/inference_engine.hpp"

namespace uhd::net {

/// Wire front-end tuning knobs.
struct wire_server_options {
    /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back
    /// with port()).
    std::uint16_t port = 0;
    /// listen() backlog (per reactor listener).
    int backlog = 128;
    /// Per-connection cap on predicts parsed but not yet answered
    /// (submitted or still waiting to be); reads pause at it
    /// (backpressure against slow readers and against pipelining far past
    /// the engine's micro-batch depth).
    std::size_t inflight_cap = 128;
    /// Per-connection cap on buffered unsent reply bytes; reads pause
    /// above it until EPOLLOUT drains the backlog.
    std::size_t write_buffer_cap = 1 << 20;
    /// Largest accepted payload_len; larger frames poison the stream
    /// (error frame + disconnect).
    std::uint32_t max_payload = 1 << 20;
    /// partial_fit publishes a fresh snapshot to the engine every N fits
    /// (and on the first fit). Amortizes snapshot finalization.
    std::size_t publish_every = 64;
    /// Epoll loop threads, each with its own SO_REUSEPORT listener and
    /// connection shard. 0 resolves UHD_NET_REACTORS (default 1).
    std::size_t reactors = 0;
};

/// Sharded epoll server bridging TCP clients to an inference_engine (and
/// optionally an online trainer).
class wire_server {
public:
    /// Serve `engine` over TCP. `trainer`, when given, enables
    /// partial_fit (updates are serialized across reactors by an internal
    /// mutex). Raw-feature predicts are answered through the engine's
    /// encode stage when it is raw_capable(), and get `unsupported`
    /// otherwise. The engine must outlive the server.
    explicit wire_server(serve::inference_engine& engine,
                         wire_server_options options = {},
                         core::uhd_model* trainer = nullptr);

    wire_server(const wire_server&) = delete;
    wire_server& operator=(const wire_server&) = delete;

    /// stop()s; see there.
    ~wire_server();

    /// Bind the listeners, spawn the reactor threads. Throws uhd::error
    /// on socket failures (and on an invalid UHD_NET_REACTORS).
    void start();

    /// Shut down: stop accepting, close connections, join every reactor,
    /// and wait until every request already inside the engine has been
    /// delivered (so no engine delivery can outlive this object).
    /// Idempotent.
    void stop();

    /// The bound TCP port, shared by every reactor (valid after start()).
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// Reactor threads serving (valid after start(); 0 before).
    [[nodiscard]] std::size_t reactor_count() const noexcept {
        return reactors_.size();
    }

    /// Aggregated wire counters: the field-wise sum over every reactor
    /// shard (safe from any thread).
    [[nodiscard]] wire_stats stats() const noexcept;

    /// One reactor's own shard (safe from any thread; `i` must be below
    /// reactor_count()).
    [[nodiscard]] wire_stats reactor_stats(std::size_t i) const;

private:
    struct connection;

    /// One reactor's query payload slots: fixed-size, cache-line aligned,
    /// in pages of page_slots that are allocated when no slot is free and
    /// never freed or moved while the pool lives. Single-threaded: only
    /// the owning reactor acquires and releases.
    class slot_pool {
    public:
        static constexpr std::size_t page_slots = 32;
        /// Slot indices must fit the answer tag's 24 slot bits.
        static constexpr std::size_t max_slots = std::size_t{1} << 24;

        /// Empty pool of slots holding at least `slot_bytes` bytes each.
        explicit slot_pool(std::size_t slot_bytes = 0);

        /// A free slot's index, growing the pool by a page when none is
        /// free; nullopt when the pool already holds max_slots.
        [[nodiscard]] std::optional<std::uint32_t> acquire();
        /// Return an acquired slot (allocates nothing).
        void release(std::uint32_t slot) noexcept;
        /// The slot's storage: at least `slot_bytes` bytes, 64-byte aligned.
        [[nodiscard]] std::uint64_t* data(std::uint32_t slot) noexcept;

        /// Slots allocated (the in-flight high-water mark, in pages).
        [[nodiscard]] std::size_t size() const noexcept {
            return pages_.size() * page_slots;
        }
        [[nodiscard]] std::size_t in_use() const noexcept {
            return size() - free_.size();
        }

    private:
        std::size_t slot_words_ = 0;
        std::vector<cache_aligned_vector<std::uint64_t>> pages_;
        std::vector<std::uint32_t> free_; ///< LIFO: reuse the warmest slot
    };

    /// One sharded event loop: everything the former single loop owned,
    /// now per reactor. It is also the engine's answer_sink for every
    /// predict it submits, so it is heap-pinned (vector of unique_ptr).
    struct reactor final : serve::answer_sink {
        std::size_t index = 0;
        socket_fd listener;
        socket_fd epoll;
        socket_fd wake; ///< eventfd: completion arrivals + stop signal
        /// Spare descriptor (/dev/null), given up at EMFILE/ENFILE so one
        /// pending connection can be accepted and closed (shed_pending).
        socket_fd reserve;
        std::thread thread;
        std::uint64_t next_conn_id = 2; ///< 0 = listener, 1 = eventfd
        std::unordered_map<std::uint64_t, std::unique_ptr<connection>> conns;

        // Completion mailbox: engine workers deliver() into `completions`;
        // the loop swaps it with `draining` and drains that, so both
        // buffers keep their capacity. `outstanding` counts submitted
        // predicts not yet delivered, so stop() can wait until no worker
        // still holds this sink.
        std::mutex completions_mutex;
        std::vector<serve::answer> completions;
        std::vector<serve::answer> draining;
        std::size_t outstanding = 0;
        std::condition_variable outstanding_zero;

        // Loop-only scratch lists of connection ids, reused every round.
        std::vector<std::uint64_t> touched;  ///< answered in this drain
        std::vector<std::uint64_t> parked;   ///< holding a refused tail
        std::vector<std::uint64_t> retrying; ///< retry_parked's swap buffer

        slot_pool slots; ///< predict payloads, from parse to answer
        /// A pre-encoded frame body decoded to int32, aligned for the
        /// kernels (the body sits at any offset of the read buffer).
        std::vector<std::int32_t> decoded;

        wire_counters counters; ///< this reactor's stats shard

        /// Store the pool's gauges in the stats shard; called after every
        /// change, so a connection's close never shows before its slots.
        void publish_slots() noexcept {
            counters.record_slots(slots.size(), slots.in_use());
        }

        /// Worker side: one micro-batch's answers for this reactor, under
        /// one mailbox lock, with one `outstanding` decrement and an
        /// eventfd write only when the mailbox was empty.
        void deliver(std::span<const serve::answer> answers) noexcept override;
    };

    void loop(reactor& r);
    void accept_ready(reactor& r);
    bool shed_pending(reactor& r);
    void drain_completions(reactor& r);
    void retry_parked(reactor& r);
    void pump_connection(reactor& r, connection& conn);
    bool submit_pending(reactor& r, connection& conn);
    bool parse_frames(reactor& r, connection& conn);
    void handle_frame(reactor& r, connection& conn, std::uint8_t op,
                      std::uint32_t request_id, const std::uint8_t* payload,
                      std::size_t payload_len);
    void handle_predict(reactor& r, connection& conn, std::uint8_t op,
                        std::uint32_t request_id, const std::uint8_t* payload,
                        std::size_t payload_len);
    void handle_partial_fit(reactor& r, connection& conn,
                            std::uint32_t request_id,
                            const std::uint8_t* payload,
                            std::size_t payload_len);
    void handle_stats(reactor& r, connection& conn, std::uint32_t request_id);
    void queue_error(reactor& r, connection& conn, std::uint32_t request_id,
                     wire_error code, const char* message);
    void flush_writes(reactor& r, connection& conn);
    void update_epoll_interest(reactor& r, connection& conn);
    void close_connection(reactor& r, std::uint64_t conn_id);
    /// Return the slots of the connection's unsubmitted predicts.
    static void release_pending(reactor& r, connection& conn) noexcept;
    [[nodiscard]] bool throttled(const connection& conn) const noexcept;

    serve::inference_engine& engine_;
    core::uhd_model* trainer_ = nullptr;
    wire_server_options options_;

    std::vector<std::unique_ptr<reactor>> reactors_;
    std::uint16_t port_ = 0;
    std::atomic<bool> running_{false};
    std::mutex start_stop_mutex_; ///< serializes start()/stop() callers

    // Training path: any reactor may carry partial_fit, so the trainer
    // (and the publish cadence counter) get one writer lock.
    std::mutex trainer_mutex_;
    std::uint64_t fits_ = 0; ///< cumulative partial_fit count (under lock)
};

} // namespace uhd::net

#endif // UHD_NET_WIRE_SERVER_HPP

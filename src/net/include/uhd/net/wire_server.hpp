// Epoll wire front-end for the serving engine — the "traffic actually
// reaches the process" layer.
//
// Threading model (sharded reactors, default 1):
//
//   clients ══ TCP ══▶ N reactor threads ──try_submit[_raw]()──▶ engine
//              (SO_REUSEPORT listeners;       │                  workers
//               epoll, edge-triggered,        │                    │
//               non-blocking accept4)         │                    │
//                     ▲      ▲                │                    │
//                     │      └── per-reactor eventfd ◀── completion
//                     └────────── write buffers          callback
//
// * The I/O layer owns no inference threads: each reactor runs one epoll
//   loop over the connections *it* accepted; inference parallelism stays
//   where it already lives (the engine's micro-batch workers). Decoded
//   queries move straight from the connection read buffer into the
//   engine's request vector — one deserialize, zero further payload
//   copies. Raw-feature queries are NOT encoded on the reactor: the raw
//   bytes are handed to the engine and its workers batch-encode each
//   drained micro-batch with one batch encode call, so the reactor does
//   pure I/O and encode throughput scales with workers, not loops.
// * Sharding: with N > 1 each reactor has its own SO_REUSEPORT listener
//   on the shared port (the kernel load-balances accepts), connection
//   table, completion mailbox + eventfd, and wire_counters shard
//   (stats() sums the shards). A connection lives its whole life on the
//   reactor that accepted it, so every per-connection invariant —
//   backpressure caps, write-buffer re-arming, poison handling, FIFO
//   order — holds per shard exactly as it did with one loop.
// * Completions come back on worker threads; the callback only appends
//   {connection, request_id, answer} to the owning reactor's mailbox and
//   kicks that reactor's eventfd, so workers never touch sockets and no
//   loop ever waits on inference.
// * Backpressure is layered the way the queue contract wants it: the
//   engine queue is never blocked on — a full try_submit parks the
//   request on its connection and the loop simply stops reading that
//   socket (edge-triggered epoll makes "stop reading" free). A slow
//   *reader* is throttled the same way: while a connection exceeds its
//   in-flight cap or its write buffer is over the cap, its reads pause
//   until completions drain / EPOLLOUT flushes. Sockets throttle;
//   the queue never deadlocks, other connections never stall.
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
#include <thread>
#include <unordered_map>
#include <vector>

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
    /// Per-connection cap on requests submitted but not yet answered;
    /// reads pause above it (backpressure against slow readers and
    /// against pipelining far past the engine's micro-batch depth).
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
    /// mutex); raw-feature predict payloads are answered through the
    /// engine's off-loop encode stage when it is raw_capable(), else
    /// encoded inline with `encoder` — which defaults to the trainer's,
    /// so encoded-only inference servers can pass neither. The engine
    /// must outlive the server.
    explicit wire_server(serve::inference_engine& engine,
                         wire_server_options options = {},
                         core::uhd_model* trainer = nullptr,
                         const core::uhd_encoder* encoder = nullptr);

    wire_server(const wire_server&) = delete;
    wire_server& operator=(const wire_server&) = delete;

    /// stop()s; see there.
    ~wire_server();

    /// Bind the listeners, spawn the reactor threads. Throws uhd::error
    /// on socket failures (and on an invalid UHD_NET_REACTORS).
    void start();

    /// Shut down: stop accepting, close connections, join every reactor,
    /// and wait until every request already inside the engine has
    /// completed (so no engine callback can outlive this object).
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
    struct completion {
        std::uint64_t conn_id = 0;
        std::uint32_t request_id = 0;
        std::uint8_t reply_op = 0;
        std::uint32_t label = 0;
        std::uint64_t snapshot_version = 0;
        bool failed = false;
    };

    /// One sharded event loop: everything the former single loop owned,
    /// now per reactor. Heap-pinned (vector of unique_ptr) so completion
    /// callbacks can capture a stable pointer.
    struct reactor {
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

        // Completion mailbox: engine workers push, this reactor drains.
        // The outstanding count lets stop() wait until no callback that
        // captures this reactor can still be in flight.
        std::mutex completions_mutex;
        std::vector<completion> completions;
        std::size_t outstanding = 0;
        std::condition_variable outstanding_zero;

        wire_counters counters; ///< this reactor's stats shard
    };

    void loop(reactor& r);
    void accept_ready(reactor& r);
    bool shed_pending(reactor& r);
    void drain_completions(reactor& r);
    void pump_connection(reactor& r, connection& conn);
    bool retry_parked(reactor& r, connection& conn);
    bool parse_frames(reactor& r, connection& conn);
    bool handle_frame(reactor& r, connection& conn, std::uint8_t op,
                      std::uint32_t request_id, const std::uint8_t* payload,
                      std::size_t payload_len);
    bool handle_predict(reactor& r, connection& conn, std::uint8_t op,
                        std::uint32_t request_id, const std::uint8_t* payload,
                        std::size_t payload_len);
    void handle_partial_fit(reactor& r, connection& conn,
                            std::uint32_t request_id,
                            const std::uint8_t* payload,
                            std::size_t payload_len);
    void handle_stats(reactor& r, connection& conn, std::uint32_t request_id);
    bool submit_decoded(reactor& r, connection& conn, std::uint32_t request_id,
                        bool dynamic, std::vector<std::int32_t>& encoded);
    bool submit_raw(reactor& r, connection& conn, std::uint32_t request_id,
                    bool dynamic, std::vector<std::uint8_t>& raw);
    serve::answer_callback make_completion(reactor& r, std::uint64_t conn_id,
                                           std::uint32_t request_id,
                                           std::uint8_t reply_op);
    void queue_error(reactor& r, connection& conn, std::uint32_t request_id,
                     wire_error code, const char* message);
    void flush_writes(reactor& r, connection& conn);
    void update_epoll_interest(reactor& r, connection& conn);
    void close_connection(reactor& r, std::uint64_t conn_id);
    [[nodiscard]] bool throttled(const connection& conn) const noexcept;

    serve::inference_engine& engine_;
    core::uhd_model* trainer_ = nullptr;
    const core::uhd_encoder* encoder_ = nullptr;
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

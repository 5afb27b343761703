#include "uhd/net/wire_server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <memory>
#include <span>
#include <utility>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "uhd/common/config.hpp"
#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/net/wire_format.hpp"

namespace uhd::net {

namespace {

constexpr std::uint64_t listener_id = 0;
constexpr std::uint64_t wake_id = 1;
constexpr std::size_t read_chunk = 64 * 1024;

/// options.reactors, with 0 resolving UHD_NET_REACTORS (default 1).
std::size_t resolve_reactors(std::size_t configured) {
    if (configured != 0) return configured;
    const std::int64_t env = env_int("UHD_NET_REACTORS", 1);
    UHD_REQUIRE(env >= 1 && env <= 256, "UHD_NET_REACTORS must be in [1, 256]");
    return static_cast<std::size_t>(env);
}

/// Cumulative CPU time of the calling thread (the reactor-utilization
/// numerator; 0 when the clock is unavailable).
std::uint64_t thread_cpu_ns() noexcept {
    timespec ts{};
    if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/// A predict's engine tag: the full connection id in `owner`; in `item`,
/// the request id, the reply opcode above it and the payload slot above
/// that (24 bits, slot_pool::max_slots).
serve::answer_tag predict_tag(std::uint64_t conn_id, std::uint32_t request_id,
                              std::uint8_t reply_op, std::uint32_t slot) noexcept {
    return {conn_id, request_id | (std::uint64_t{reply_op} << 32) |
                         (std::uint64_t{slot} << 40)};
}

std::uint32_t tag_request_id(const serve::answer_tag& tag) noexcept {
    return static_cast<std::uint32_t>(tag.item);
}

std::uint8_t tag_reply_op(const serve::answer_tag& tag) noexcept {
    return static_cast<std::uint8_t>(tag.item >> 32);
}

std::uint32_t tag_slot(const serve::answer_tag& tag) noexcept {
    return static_cast<std::uint32_t>(tag.item >> 40);
}

/// A connection's received bytes: [0, size()) filled, room behind them up
/// to the capacity. Making room never writes it, so a read pays no
/// zero-fill: a std::vector sized up before each recv value-initializes
/// the 64 KiB chunk every time, the read of each pump that finds nothing
/// (EAGAIN) included.
class read_buffer {
public:
    [[nodiscard]] const std::uint8_t* data() const noexcept { return bytes_.get(); }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// At least `n` bytes of room after size(); returns where it starts.
    /// Growth at least doubles the capacity and keeps the filled bytes.
    [[nodiscard]] std::uint8_t* room(std::size_t n) {
        if (capacity_ - size_ < n) {
            const std::size_t capacity = std::max(size_ + n, 2 * capacity_);
            auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(capacity);
            if (size_ != 0) std::memcpy(grown.get(), bytes_.get(), size_);
            bytes_ = std::move(grown);
            capacity_ = capacity;
        }
        return bytes_.get() + size_;
    }

    /// Count `n` bytes written into room() as filled.
    void fill(std::size_t n) noexcept { size_ += n; }

    void clear() noexcept { size_ = 0; }

    /// Drop the first `n` filled bytes, moving the rest to the front.
    void drop_front(std::size_t n) noexcept {
        std::memmove(bytes_.get(), bytes_.get() + n, size_ - n);
        size_ -= n;
    }

private:
    std::unique_ptr<std::uint8_t[]> bytes_;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

} // namespace

/// Per-connection state, owned by the accepting reactor's event loop.
struct wire_server::connection {
    socket_fd sock;
    std::uint64_t id = 0;

    // Read side: bytes appended at the tail, frames parsed from rpos.
    // Compacted when fully parsed (the steady state for well-behaved
    // pipelining), so a payload is decoded exactly once, in place.
    read_buffer rbuf;
    std::size_t rpos = 0;
    bool read_ready = false; ///< ET bookkeeping: EPOLLIN seen, EAGAIN not yet
    bool peer_eof = false;   ///< read() returned 0; close once drained

    // Write side: reply frames appended, flushed from wpos.
    std::vector<std::uint8_t> wbuf;
    std::size_t wpos = 0;
    bool want_write = false; ///< EPOLLOUT currently armed

    std::size_t inflight = 0;       ///< submitted, not yet answered
    bool close_after_flush = false; ///< poisoned stream: flush error, close
    bool throttle_counted = false;  ///< one throttle_event per pause episode
    bool touched = false;           ///< listed in reactor::touched

    // Predicts parsed but not yet in the engine, in arrival order. Each
    // read's predicts enter the engine in one call; a tail the full queue
    // refused stays here (`parked`, listed in reactor::parked) and is
    // submitted before any further frame is handled.
    std::vector<serve::sink_request> pending;
    bool parked = false;
};

wire_server::slot_pool::slot_pool(std::size_t slot_bytes)
    // Whole cache lines: a worker reading one slot never shares a line
    // with the reactor writing the next.
    : slot_words_((slot_bytes + cache_line_bytes - 1) / cache_line_bytes *
                  (cache_line_bytes / sizeof(std::uint64_t))) {}

std::optional<std::uint32_t> wire_server::slot_pool::acquire() {
    if (free_.empty()) {
        if (size() + page_slots > max_slots) return std::nullopt;
        const auto first = static_cast<std::uint32_t>(size());
        pages_.emplace_back(page_slots * slot_words_);
        // Room for every slot, so release() never allocates.
        free_.reserve(size());
        for (std::uint32_t i = page_slots; i-- > 0;) free_.push_back(first + i);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
}

void wire_server::slot_pool::release(std::uint32_t slot) noexcept {
    free_.push_back(slot);
}

std::uint64_t* wire_server::slot_pool::data(std::uint32_t slot) noexcept {
    return pages_[slot / page_slots].data() + (slot % page_slots) * slot_words_;
}

wire_server::wire_server(serve::inference_engine& engine,
                         wire_server_options options, core::uhd_model* trainer)
    : engine_(engine), trainer_(trainer), options_(options) {
    UHD_REQUIRE(options_.inflight_cap >= 1, "in-flight cap must be positive");
    UHD_REQUIRE(options_.max_payload >= 1, "payload cap must be positive");
    if (options_.publish_every == 0) options_.publish_every = 1;
    if (trainer_ != nullptr) {
        // partial_fit publishes the trainer's snapshots: one the engine
        // would refuse must fail here, not after a fit has been applied.
        const hdc::inference_snapshot snap = trainer_->snapshot();
        UHD_REQUIRE(snap.dim() == engine_.dim() && snap.classes() == engine_.classes() &&
                        snap.mode() == hdc::query_mode::binarized,
                    "trainer snapshots do not fit the engine (geometry or query mode)");
    }
    // Resolve the env knob on the constructing thread so a bad value throws
    // here, not inside a reactor.
    options_.reactors = resolve_reactors(options_.reactors);
}

wire_server::~wire_server() { stop(); }

void wire_server::start() {
    const std::lock_guard<std::mutex> lock(start_stop_mutex_);
    UHD_REQUIRE(!running_.load(std::memory_order_acquire),
                "wire_server already started");
    reactors_.clear(); // previous run's (joined) shards, if any
    const std::size_t n = options_.reactors;
    // With n > 1 every listener shares the port via SO_REUSEPORT and the
    // kernel load-balances accepts. The first bind may be ephemeral
    // (port 0); the rest bind the concrete port it resolved to.
    const bool reuse = n > 1;
    // A slot holds the larger payload a predict can put in it: raw pixels
    // or a pre-encoded query's sign words.
    const std::size_t dim = engine_.dim();
    const std::size_t slot_bytes = std::max(
        engine_.raw_pixels(), kernels::sign_words(dim) * sizeof(std::uint64_t));
    try {
        for (std::size_t i = 0; i < n; ++i) {
            auto r = std::make_unique<reactor>();
            r->index = i;
            r->slots = slot_pool(slot_bytes);
            r->decoded.resize(dim);
            r->listener = listen_tcp(i == 0 ? options_.port : port_,
                                     options_.backlog, reuse);
            if (i == 0) port_ = local_port(r->listener.get());
            r->epoll.reset(::epoll_create1(EPOLL_CLOEXEC));
            if (!r->epoll.valid()) throw uhd::error("epoll_create1() failed");
            r->wake.reset(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
            if (!r->wake.valid()) throw uhd::error("eventfd() failed");
            r->reserve.reset(::open("/dev/null", O_RDONLY | O_CLOEXEC));
            if (!r->reserve.valid()) throw uhd::error("open(/dev/null) failed");

            epoll_event ev{};
            ev.events = EPOLLIN | EPOLLET;
            ev.data.u64 = listener_id;
            if (::epoll_ctl(r->epoll.get(), EPOLL_CTL_ADD, r->listener.get(),
                            &ev) != 0) {
                throw uhd::error("epoll_ctl(listener) failed");
            }
            ev.events = EPOLLIN | EPOLLET;
            ev.data.u64 = wake_id;
            if (::epoll_ctl(r->epoll.get(), EPOLL_CTL_ADD, r->wake.get(),
                            &ev) != 0) {
                throw uhd::error("epoll_ctl(eventfd) failed");
            }
            reactors_.push_back(std::move(r));
        }
    } catch (...) {
        reactors_.clear(); // no threads spawned yet: sockets just close
        throw;
    }

    running_.store(true, std::memory_order_release);
    for (auto& r : reactors_) {
        reactor* raw = r.get();
        raw->thread = std::thread([this, raw] { loop(*raw); });
    }
}

void wire_server::stop() {
    const std::lock_guard<std::mutex> lock(start_stop_mutex_);
    running_.store(false, std::memory_order_release);
    for (auto& r : reactors_) {
        if (!r->thread.joinable()) continue;
        const std::uint64_t one = 1;
        // Best-effort kick; the loop also times out of epoll_wait.
        [[maybe_unused]] const ssize_t n =
            ::write(r->wake.get(), &one, sizeof(one));
        r->thread.join();
    }
    for (auto& r : reactors_) {
        // Connections still open at stop() close here, not in the loop:
        // count them, so the final stats never report a live connection.
        for (auto& [id, conn] : r->conns) {
            release_pending(*r, *conn);
            r->counters.record_close();
        }
        r->conns.clear();
        r->listener.reset();
        r->reserve.reset();
        r->epoll.reset();
        // Wait out predicts already inside the engine: it delivers them to
        // this reactor, so none may arrive after the shard is torn down,
        // and no worker still reads a slot once the pool goes. Delivery
        // only touches the mailbox (connections are already gone).
        std::unique_lock<std::mutex> pending(r->completions_mutex);
        r->outstanding_zero.wait(pending, [&r] { return r->outstanding == 0; });
        for (const serve::answer& done : r->completions) {
            r->slots.release(tag_slot(done.tag));
        }
        r->completions.clear();
        r->wake.reset();
        r->publish_slots();
    }
    // reactors_ stays populated (threads joined, fds closed) so stats()
    // keeps reporting the final shard counters; the next start() clears it.
}

wire_stats wire_server::stats() const noexcept {
    wire_stats total;
    for (const auto& r : reactors_) total += r->counters.load();
    return total;
}

wire_stats wire_server::reactor_stats(std::size_t i) const {
    UHD_REQUIRE(i < reactors_.size(), "reactor_stats index out of range");
    return reactors_[i]->counters.load();
}

void wire_server::loop(reactor& r) {
    epoll_event events[64];
    while (running_.load(std::memory_order_acquire)) {
        // A parked connection may wait on queue slots that another
        // reactor's requests hold, with no event of its own to come: poll.
        const int timeout_ms = r.parked.empty() ? 100 : 1;
        const int n = ::epoll_wait(r.epoll.get(), events, 64, timeout_ms);
        if (n < 0) {
            if (errno == EINTR) continue;
            break; // epoll fd gone: shutdown race
        }
        for (int i = 0; i < n; ++i) {
            const std::uint64_t id = events[i].data.u64;
            if (id == listener_id) {
                accept_ready(r);
                continue;
            }
            if (id == wake_id) {
                std::uint64_t drained = 0;
                while (::read(r.wake.get(), &drained, sizeof(drained)) > 0) {
                }
                continue; // completions handled below, every iteration
            }
            const auto it = r.conns.find(id);
            if (it == r.conns.end()) continue; // closed earlier this wake-up
            connection& conn = *it->second;
            if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
                close_connection(r, id);
                continue;
            }
            if ((events[i].events & EPOLLIN) != 0) conn.read_ready = true;
            if ((events[i].events & EPOLLOUT) != 0) flush_writes(r, conn);
            if (r.conns.find(id) == r.conns.end()) continue; // flush closed it
            pump_connection(r, conn);
        }
        // Completions may have arrived during the handling above (or the
        // eventfd fired): deliver replies and un-throttle connections, then
        // offer the freed queue slots to parked connections.
        drain_completions(r);
        retry_parked(r);
        // Publish this thread's cumulative CPU time: the reactor
        // utilization numerator (divide by wall time to get busy share).
        r.counters.record_loop_cpu(thread_cpu_ns());
    }
}

void wire_server::accept_ready(reactor& r) {
    // The listener is edge-triggered: a connection left in the backlog here
    // waits for the next client's edge, so drain until EAGAIN.
    while (true) {
        const int fd = ::accept4(r.listener.get(), nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            // A connection that died in the backlog: the next one may not.
            if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) continue;
            if ((errno == EMFILE || errno == ENFILE) && shed_pending(r)) continue;
            return; // transient accept failure; listener stays armed
        }
        auto conn = std::make_unique<connection>();
        conn->sock.reset(fd);
        conn->id = r.next_conn_id++;
        try {
            set_tcp_nodelay(fd);
        } catch (const uhd::error&) {
            // Nagle stays on; correctness is unaffected.
        }
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLET;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(r.epoll.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
            continue; // connection dropped; socket_fd closes it
        }
        r.counters.record_accept();
        r.conns.emplace(conn->id, std::move(conn));
    }
}

bool wire_server::shed_pending(reactor& r) {
    // Out of descriptors: free the reserve, accept the oldest pending
    // connection and close it at once, so its client sees EOF instead of
    // waiting in the backlog, then take the reserve back. True when a
    // connection was shed (the caller keeps draining); a reserve lost to
    // another thread frees nothing here, and the next call retries it.
    r.reserve.reset();
    const int fd = ::accept4(r.listener.get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
        ::close(fd);
        r.counters.record_accept();
        r.counters.record_close();
    }
    r.reserve.reset(::open("/dev/null", O_RDONLY | O_CLOEXEC));
    return fd >= 0;
}

void wire_server::reactor::deliver(std::span<const serve::answer> answers) noexcept {
    const std::lock_guard<std::mutex> lock(completions_mutex);
    const bool was_empty = completions.empty();
    completions.insert(completions.end(), answers.begin(), answers.end());
    // Everything below stays under the mutex on purpose — stop() tears the
    // shard down right after it observes outstanding == 0, so the eventfd
    // write must precede the decrement (stop() closes wake), and the
    // notify must happen while the lock pins the waiter inside its wait
    // (notify-after-unlock would race the cv's destruction). Only an empty
    // mailbox needs the write: a non-empty one has a wake-up the loop has
    // not yet consumed, or is about to be swapped by the loop without
    // blocking first. An eventfd write never blocks in practice — the
    // counter would have to hit 2^64-1.
    if (was_empty) {
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t n = ::write(wake.get(), &one, sizeof(one));
        counters.record_wake_write();
    }
    outstanding -= answers.size();
    if (outstanding == 0) outstanding_zero.notify_all();
}

void wire_server::drain_completions(reactor& r) {
    {
        const std::lock_guard<std::mutex> lock(r.completions_mutex);
        r.draining.swap(r.completions);
    }
    for (const serve::answer& done : r.draining) {
        // The worker is done reading the payload: its slot is free again,
        // whether or not the connection is still there.
        r.slots.release(tag_slot(done.tag));
        const auto it = r.conns.find(done.tag.owner);
        if (it == r.conns.end()) continue; // connection died while in flight
        connection& conn = *it->second;
        if (conn.inflight > 0) --conn.inflight;
        const std::uint32_t request_id = tag_request_id(done.tag);
        if (done.error != nullptr) {
            queue_error(r, conn, request_id, wire_error::internal,
                        "engine failed to answer");
        } else {
            std::uint8_t payload[12];
            store_u32(payload, static_cast<std::uint32_t>(done.label));
            store_u64(payload + 4, done.snapshot_version);
            append_frame(conn.wbuf, tag_reply_op(done.tag), request_id,
                         std::span<const std::uint8_t>(payload, sizeof(payload)));
            r.counters.record_frame_out();
        }
        if (!conn.touched) {
            conn.touched = true;
            r.touched.push_back(conn.id);
        }
    }
    r.draining.clear();
    r.publish_slots();
    // Re-pump every touched connection once: flush the replies and, now
    // that in-flight counts dropped, resume throttled reads.
    for (const std::uint64_t id : r.touched) {
        const auto it = r.conns.find(id);
        if (it == r.conns.end()) continue;
        it->second->touched = false;
        pump_connection(r, *it->second);
    }
    r.touched.clear();
}

void wire_server::retry_parked(reactor& r) {
    r.retrying.swap(r.parked);
    for (const std::uint64_t id : r.retrying) {
        const auto it = r.conns.find(id);
        // Gone, or already unparked by a pump this round.
        if (it == r.conns.end() || !it->second->parked) continue;
        it->second->parked = false; // a refusal parks it (and lists it) again
        pump_connection(r, *it->second);
    }
    r.retrying.clear();
}

bool wire_server::throttled(const connection& conn) const noexcept {
    // Parsed-but-unsubmitted predicts count toward the in-flight cap.
    return conn.parked ||
           conn.inflight + conn.pending.size() >= options_.inflight_cap ||
           conn.wbuf.size() - conn.wpos > options_.write_buffer_cap;
}

void wire_server::pump_connection(reactor& r, connection& conn) {
    const std::uint64_t id = conn.id;
    // Retry a parked tail first: order within a connection is FIFO.
    if (!submit_pending(r, conn)) {
        close_connection(r, id); // engine stopped underneath us
        return;
    }
    while (true) {
        // Parse whatever is already buffered.
        if (!parse_frames(r, conn)) {
            close_connection(r, id);
            return;
        }
        if (conn.close_after_flush || conn.peer_eof) break;
        if (throttled(conn)) {
            if (!conn.throttle_counted) {
                conn.throttle_counted = true;
                r.counters.record_throttle();
            }
            break; // stop reading: socket-level backpressure
        }
        conn.throttle_counted = false;
        if (!conn.read_ready) break;
        // Edge-triggered read: pull until EAGAIN or EOF. A short read is
        // NOT treated as drained — a FIN that arrived alongside the last
        // bytes is already pending and would never raise a fresh edge, so
        // stopping early would strand the EOF (and the connection) forever.
        const ssize_t got =
            ::recv(conn.sock.get(), conn.rbuf.room(read_chunk), read_chunk, 0);
        if (got > 0) {
            conn.rbuf.fill(static_cast<std::size_t>(got));
            r.counters.record_bytes_in(static_cast<std::uint64_t>(got));
            continue;
        }
        if (got == 0) {
            conn.peer_eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            conn.read_ready = false;
            break;
        }
        if (errno == EINTR) continue;
        close_connection(r, id);
        return;
    }
    flush_writes(r, conn);
    if (r.conns.find(id) == r.conns.end()) return; // flush hit a dead socket
    // EOF or a poisoned stream: once every parsed predict is answered and
    // nothing is buffered, we are done.
    if ((conn.peer_eof || conn.close_after_flush) && conn.inflight == 0 &&
        conn.pending.empty() && conn.wpos == conn.wbuf.size()) {
        close_connection(r, id);
        return;
    }
    update_epoll_interest(r, conn);
}

/// Submit the connection's pending predicts in one engine call. A refused
/// tail stays pending and parks the connection. Returns false when the
/// engine is stopped (the caller closes the connection).
bool wire_server::submit_pending(reactor& r, connection& conn) {
    if (conn.pending.empty()) return true;
    const std::size_t n = conn.pending.size();
    {
        // Count before submitting: a worker may deliver before try_submit
        // even returns.
        const std::lock_guard<std::mutex> lock(r.completions_mutex);
        r.outstanding += n;
    }
    std::size_t accepted = 0;
    bool stopped = false;
    try {
        accepted = engine_.try_submit(std::span<serve::sink_request>(conn.pending), r);
    } catch (const uhd::error&) {
        stopped = true;
    }
    if (accepted != n) {
        const std::lock_guard<std::mutex> lock(r.completions_mutex);
        r.outstanding -= n - accepted; // never delivered
    }
    conn.inflight += accepted;
    conn.pending.erase(conn.pending.begin(),
                       conn.pending.begin() + static_cast<std::ptrdiff_t>(accepted));
    if (conn.pending.empty()) {
        conn.parked = false;
    } else if (!conn.parked) {
        conn.parked = true; // engine queue full: throttled until a retry
        r.parked.push_back(conn.id);
    }
    return !stopped;
}

bool wire_server::parse_frames(reactor& r, connection& conn) {
    while (!conn.close_after_flush && !throttled(conn)) {
        const std::size_t avail = conn.rbuf.size() - conn.rpos;
        if (avail < wire_header_size) break;
        const std::uint8_t* base = conn.rbuf.data() + conn.rpos;
        const frame_header header = decode_header(base);
        const auto op = static_cast<opcode>(header.op);
        if (op != opcode::predict && op != opcode::predict_dynamic) {
            // The predicts parsed so far enter the engine before any
            // other frame is handled.
            if (!submit_pending(r, conn)) return false;
            if (conn.parked) break;
        }
        if (header.magic != wire_magic) {
            r.counters.record_malformed();
            queue_error(r, conn, header.request_id, wire_error::bad_magic,
                        "bad frame magic");
            conn.close_after_flush = true; // desynced stream: cannot recover
            break;
        }
        if (header.version != wire_version) {
            r.counters.record_malformed();
            queue_error(r, conn, header.request_id, wire_error::bad_version,
                        "unsupported protocol version");
            conn.close_after_flush = true;
            break;
        }
        if (header.payload_len > options_.max_payload) {
            r.counters.record_malformed();
            queue_error(r, conn, header.request_id, wire_error::oversized,
                        "payload exceeds server cap");
            conn.close_after_flush = true; // cannot safely skip the body
            break;
        }
        if (avail < wire_header_size + header.payload_len) break; // truncated
        r.counters.record_frame_in();
        conn.rpos += wire_header_size + header.payload_len;
        handle_frame(r, conn, header.op, header.request_id,
                     base + wire_header_size, header.payload_len);
    }
    // This read's predicts: one engine call for all of them (a tail
    // parked just now waits for retry_parked or the next pump).
    if (!conn.parked && !submit_pending(r, conn)) return false;
    // Compact once parsing stalls; steady-state pipelining consumes the
    // whole buffer, making this a cheap clear().
    if (conn.rpos == conn.rbuf.size()) {
        conn.rbuf.clear();
        conn.rpos = 0;
    } else if (conn.rpos > read_chunk) {
        conn.rbuf.drop_front(conn.rpos);
        conn.rpos = 0;
    }
    return true;
}

void wire_server::handle_frame(reactor& r, connection& conn, std::uint8_t op,
                               std::uint32_t request_id,
                               const std::uint8_t* payload,
                               std::size_t payload_len) {
    switch (static_cast<opcode>(op)) {
    case opcode::predict:
    case opcode::predict_dynamic:
        handle_predict(r, conn, op, request_id, payload, payload_len);
        return;
    case opcode::partial_fit:
        handle_partial_fit(r, conn, request_id, payload, payload_len);
        return;
    case opcode::stats:
        handle_stats(r, conn, request_id);
        return;
    case opcode::ping:
        append_frame(conn.wbuf, reply_opcode(opcode::ping), request_id,
                     std::span<const std::uint8_t>(payload, payload_len));
        r.counters.record_frame_out();
        return;
    default:
        r.counters.record_malformed();
        queue_error(r, conn, request_id, wire_error::bad_opcode,
                    "unknown request opcode");
        return; // framing is intact: the connection survives
    }
}

void wire_server::handle_predict(reactor& r, connection& conn, std::uint8_t op,
                                 std::uint32_t request_id,
                                 const std::uint8_t* payload,
                                 std::size_t payload_len) {
    const bool dynamic = static_cast<opcode>(op) == opcode::predict_dynamic;
    if (dynamic && !engine_.dynamic_capable()) {
        r.counters.record_malformed();
        queue_error(r, conn, request_id, wire_error::unsupported,
                    "engine has no dynamic policy");
        return;
    }
    if (payload_len < 1) {
        r.counters.record_malformed();
        queue_error(r, conn, request_id, wire_error::bad_payload,
                    "empty predict payload");
        return;
    }
    const auto kind = static_cast<query_kind>(payload[0]);
    const std::uint8_t* body = payload + 1;
    const std::size_t body_len = payload_len - 1;
    const std::size_t dim = engine_.dim();
    if (kind == query_kind::encoded) {
        if (body_len != dim * 4) {
            r.counters.record_malformed();
            queue_error(r, conn, request_id, wire_error::bad_payload,
                        "encoded payload size != dim * 4");
            return;
        }
    } else if (kind == query_kind::raw) {
        if (!engine_.raw_capable()) {
            r.counters.record_malformed();
            queue_error(r, conn, request_id, wire_error::unsupported,
                        "engine has no encoder for raw features");
            return;
        }
        if (body_len != engine_.raw_pixels()) {
            r.counters.record_malformed();
            queue_error(r, conn, request_id, wire_error::bad_payload,
                        "raw payload size != encoder pixels");
            return;
        }
    } else {
        r.counters.record_malformed();
        queue_error(r, conn, request_id, wire_error::bad_payload,
                    "unknown query kind");
        return;
    }
    const std::optional<std::uint32_t> slot = r.slots.acquire();
    if (!slot.has_value()) {
        queue_error(r, conn, request_id, wire_error::internal,
                    "reactor out of query slots");
        return;
    }
    r.publish_slots();
    std::uint64_t* const words = r.slots.data(*slot);
    serve::sink_request request;
    request.tag = predict_tag(conn.id, request_id,
                              reply_opcode(static_cast<opcode>(op)), *slot);
    request.dynamic = dynamic;
    if (kind == query_kind::raw) {
        // Raw features go to the engine as bytes: its workers batch-encode
        // each drained micro-batch off this thread.
        std::memcpy(words, body, body_len);
        request.raw = {reinterpret_cast<const std::uint8_t*>(words), body_len};
    } else {
        // The body sits at any offset of the read buffer: decode it into
        // the aligned scratch, then sign-binarize it into the slot — the
        // only transform between socket and kernel.
        for (std::size_t i = 0; i < dim; ++i) {
            r.decoded[i] = static_cast<std::int32_t>(load_u32(body + i * 4));
        }
        kernels::sign_binarize(r.decoded.data(), dim, words);
        request.packed = {words, kernels::sign_words(dim)};
    }
    // Submitted with the rest of this read's predicts (submit_pending).
    conn.pending.push_back(request);
}

void wire_server::handle_partial_fit(reactor& r, connection& conn,
                                     std::uint32_t request_id,
                                     const std::uint8_t* payload,
                                     std::size_t payload_len) {
    if (trainer_ == nullptr) {
        r.counters.record_malformed();
        queue_error(r, conn, request_id, wire_error::unsupported,
                    "server has no trainer");
        return;
    }
    const std::size_t pixels = trainer_->encoder().pixels();
    if (payload_len != 4 + pixels) {
        r.counters.record_malformed();
        queue_error(r, conn, request_id, wire_error::bad_payload,
                    "partial_fit payload size != 4 + pixels");
        return;
    }
    const std::uint32_t label = load_u32(payload);
    std::uint64_t fits = 0;
    std::uint64_t version = 0;
    try {
        // partial_fit may arrive on any reactor, so the trainer gets one
        // writer lock (the single cross-reactor lock, training path only).
        // The publish stays under it too, keeping fit -> snapshot-version
        // ordering exact. The publish itself is the engine's RCU pointer
        // swap.
        const std::lock_guard<std::mutex> train_lock(trainer_mutex_);
        trainer_->partial_fit(
            std::span<const std::uint8_t>(payload + 4, pixels), label);
        fits = ++fits_;
        if (fits_ % options_.publish_every == 1 || options_.publish_every == 1) {
            engine_.publish(trainer_->snapshot());
        }
        version = engine_.current()->version();
    } catch (const uhd::error&) {
        r.counters.record_malformed();
        queue_error(r, conn, request_id, wire_error::bad_payload,
                    "partial_fit rejected (label/geometry)");
        return;
    }
    std::uint8_t reply[16];
    store_u64(reply, fits);
    store_u64(reply + 8, version);
    append_frame(conn.wbuf, reply_opcode(opcode::partial_fit), request_id,
                 std::span<const std::uint8_t>(reply, sizeof(reply)));
    r.counters.record_frame_out();
}

void wire_server::handle_stats(reactor& r, connection& conn,
                               std::uint32_t request_id) {
    const serve::serve_stats engine_stats = engine_.stats();
    const wire_stats wire = stats(); // sum over every reactor shard
    stats_reply reply;
    reply.queries = engine_stats.queries;
    reply.batches = engine_stats.batches;
    reply.kernel_calls = engine_stats.kernel_calls;
    reply.snapshot_swaps = engine_stats.snapshot_swaps;
    reply.max_batch_observed = engine_stats.max_batch_observed;
    reply.snapshot_version = engine_stats.snapshot_version;
    reply.connections_accepted = wire.connections_accepted;
    reply.connections_active = wire.connections_active;
    reply.frames_in = wire.frames_in;
    reply.frames_out = wire.frames_out;
    reply.bytes_in = wire.bytes_in;
    reply.bytes_out = wire.bytes_out;
    reply.malformed_frames = wire.malformed_frames;
    reply.throttle_events = wire.throttle_events;
    reply.reactors = reactors_.size();
    reply.raw_queries = engine_stats.raw_queries;
    reply.encode_kernel_calls = engine_stats.encode_kernel_calls;
    std::uint8_t payload[stats_reply_size];
    encode_stats_reply(payload, reply);
    append_frame(conn.wbuf, reply_opcode(opcode::stats), request_id,
                 std::span<const std::uint8_t>(payload, sizeof(payload)));
    r.counters.record_frame_out();
}

void wire_server::queue_error(reactor& r, connection& conn,
                              std::uint32_t request_id, wire_error code,
                              const char* message) {
    append_error_frame(conn.wbuf, request_id, code, message);
    r.counters.record_frame_out();
}

void wire_server::flush_writes(reactor& r, connection& conn) {
    while (conn.wpos < conn.wbuf.size()) {
        const ssize_t sent =
            ::send(conn.sock.get(), conn.wbuf.data() + conn.wpos,
                   conn.wbuf.size() - conn.wpos, MSG_NOSIGNAL);
        if (sent > 0) {
            conn.wpos += static_cast<std::size_t>(sent);
            r.counters.record_bytes_out(static_cast<std::uint64_t>(sent));
            continue;
        }
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (sent < 0 && errno == EINTR) continue;
        close_connection(r, conn.id); // peer reset underneath us
        return;
    }
    if (conn.wpos == conn.wbuf.size()) {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if (conn.wpos > read_chunk) {
        conn.wbuf.erase(conn.wbuf.begin(),
                        conn.wbuf.begin() +
                            static_cast<std::ptrdiff_t>(conn.wpos));
        conn.wpos = 0;
    }
    update_epoll_interest(r, conn);
}

void wire_server::update_epoll_interest(reactor& r, connection& conn) {
    const bool needs_write = conn.wpos < conn.wbuf.size();
    if (needs_write == conn.want_write) return;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | (needs_write ? EPOLLOUT : 0U);
    ev.data.u64 = conn.id;
    if (::epoll_ctl(r.epoll.get(), EPOLL_CTL_MOD, conn.sock.get(), &ev) == 0) {
        conn.want_write = needs_write;
    }
}

void wire_server::close_connection(reactor& r, std::uint64_t conn_id) {
    const auto it = r.conns.find(conn_id);
    if (it == r.conns.end()) return;
    // A parked tail never entered the engine: its slots come back here.
    // Those of in-flight requests come back when their answers are drained.
    release_pending(r, *it->second);
    // socket_fd close also removes the fd from the epoll set; completions
    // for in-flight requests find the id gone and are dropped.
    r.conns.erase(it);
    r.counters.record_close();
}

void wire_server::release_pending(reactor& r, connection& conn) noexcept {
    for (const serve::sink_request& request : conn.pending) {
        r.slots.release(tag_slot(request.tag));
    }
    conn.pending.clear();
    r.publish_slots();
}

} // namespace uhd::net

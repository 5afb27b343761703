// The closed-loop load generator: one thread, one connection, a fixed
// window of requests in flight, every reply checked against the oracle.
#ifndef PERFBENCH_DRIVE_HPP
#define PERFBENCH_DRIVE_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "stats.hpp"
#include "uhd/net/socket.hpp"
#include "uhd/net/wire_format.hpp"
#include "workload.hpp"

namespace perfbench {

/// What one phase of the run saw. A request belongs to the phase in which
/// its reply (or its failure) arrived.
struct phase_result {
    std::vector<double> predict_us; ///< predict latencies; missed = failed
    std::vector<double> fit_us;     ///< partial_fit latencies; missed = failed
    std::uint64_t answered = 0;     ///< replies read
    std::uint64_t failed = 0;       ///< error frames, wrong answers, timeouts
    std::uint64_t true_labels = 0;  ///< predicts answered with the true label
    std::int64_t wall_ns = 0;
    std::int64_t loadgen_cpu_ns = 0; ///< the load-generator thread's CPU
};

/// Requests one run is sized for (about 300k req/s for 25 s). Buffers are
/// reserved, not touched, up to this: growing them mid-drive would stall
/// the loop.
inline constexpr std::size_t expected_requests = std::size_t{8} << 20;

/// Pre-serialized request frames (request ids are patched per send).
struct frame_set {
    std::vector<std::vector<std::uint8_t>> predicts; ///< one per pool entry
    std::vector<std::vector<std::uint8_t>> fits;     ///< one per fit-stream entry
};

[[nodiscard]] frame_set make_frames(const workload_spec& spec,
                                    const client_inputs& client,
                                    const oracle& oracle);

/// Where a reply is checked. Split out of the load generator so the
/// accounting can be tested with a deliberately wrong oracle.
class reply_checker {
public:
    virtual ~reply_checker() = default;
    reply_checker() = default;
    reply_checker(const reply_checker&) = delete;
    reply_checker& operator=(const reply_checker&) = delete;
    /// Expected label of pool entry `i` answered from `version`.
    [[nodiscard]] virtual std::optional<std::uint32_t> label(
        std::size_t i, std::uint64_t version) const = 0;
    /// Expected reply to the k-th partial_fit (k from 1).
    [[nodiscard]] virtual uhd::net::partial_fit_reply fit_reply(std::size_t k) const = 0;
};

/// The oracle as a reply checker.
class oracle_checker final : public reply_checker {
public:
    explicit oracle_checker(const oracle& o) : oracle_(o) {}
    [[nodiscard]] std::optional<std::uint32_t> label(
        std::size_t i, std::uint64_t version) const override {
        return oracle_.label(i, version);
    }
    [[nodiscard]] uhd::net::partial_fit_reply fit_reply(std::size_t k) const override {
        return oracle_.fit_reply(k);
    }

private:
    const oracle& oracle_;
};

class load_generator {
public:
    /// Connect to the server on 127.0.0.1:`port`. `true_labels` are the
    /// pool's labels (for accuracy), `fit_every` the drive's fit share.
    load_generator(std::uint16_t port, const frame_set& frames,
                   const std::vector<std::uint32_t>& order,
                   std::vector<std::uint32_t> true_labels,
                   const reply_checker& checker, std::size_t fit_every);

    /// Start a fresh phase (clears samples, starts the clocks).
    void begin_phase();
    /// The current phase, with its wall and CPU time filled in.
    [[nodiscard]] phase_result end_phase();

    /// Closed loop: keep `window` requests in flight, drawing predicts from
    /// the pool order and, every fit_every-th request while the stream
    /// lasts, a partial_fit, until `until_ns` (steady clock).
    void run_until(std::int64_t until_ns);

    /// Send the rest of the fit stream with up to `depth` fits in flight,
    /// then wait for every reply.
    void send_remaining_fits(std::size_t depth);

    /// Send every pool entry once, in pool order, and wait for the replies.
    /// Replies must come from `version`.
    void accuracy_pass(std::uint64_t version);

    /// Wait until no request is in flight.
    void drain();

    /// Record a span per answered request into `trace` (nullptr: stop).
    void set_trace(trace_log* trace) noexcept { trace_ = trace; }

    [[nodiscard]] std::uint64_t sent() const noexcept { return records_.size(); }
    [[nodiscard]] std::uint64_t answered() const noexcept { return answered_; }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
    [[nodiscard]] std::size_t fits_sent() const noexcept { return next_fit_; }
    /// The connection timed out or broke; the run stops sending.
    [[nodiscard]] bool broken() const noexcept { return broken_; }

private:
    enum class kind : std::uint8_t { predict, fit };
    struct record {
        std::int64_t sent_ns = 0;
        std::uint32_t index = 0; ///< pool entry or fit-stream entry
        kind what = kind::predict;
        bool done = false;
    };

    /// The loop under every drive: keep up to `depth` requests in flight,
    /// each queued by `next()` (false once it has nothing to send), until
    /// `next` runs dry and every reply is in, or until `until_ns` (steady
    /// clock), which leaves the requests in flight outstanding.
    template <typename Next>
    void pump(std::size_t depth, Next&& next,
              std::int64_t until_ns = std::numeric_limits<std::int64_t>::max());
    void queue_predict(std::size_t pool_index);
    void queue_fit();
    void flush();
    void receive();
    void on_reply(const uhd::net::frame_header& header, const std::uint8_t* payload);
    void fail_outstanding();

    uhd::net::socket_fd sock_;
    const frame_set& frames_;
    const std::vector<std::uint32_t>& order_;
    std::vector<std::uint32_t> true_labels_;
    const reply_checker& checker_;
    std::size_t fit_every_ = 0;

    std::vector<record> records_; ///< indexed by request id
    std::vector<std::uint8_t> out_;
    std::vector<std::uint8_t> in_;
    std::size_t in_begin_ = 0;
    std::size_t in_end_ = 0;
    std::size_t outstanding_ = 0;
    std::size_t cursor_ = 0;    ///< position in the pool order
    std::size_t next_fit_ = 0;  ///< fit-stream entries sent
    std::size_t mixed_ = 0;     ///< requests sent by run_until
    std::optional<std::uint64_t> required_version_;
    std::uint64_t answered_ = 0;
    std::uint64_t failed_ = 0;
    bool broken_ = false;
    trace_log* trace_ = nullptr;

    phase_result phase_;
    std::int64_t phase_wall_ = 0;
    std::int64_t phase_cpu_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_DRIVE_HPP

// The server side in a process of its own.
//
// The parent forks before it builds anything of the load generator's, so
// the child's resident memory and CPU time are the server's alone: its
// getrusage() peak excludes the frame pool and the oracle, and its
// process CPU clock excludes the load-generator thread. The child sets the
// system up `setup_repeats` times (keeping the last), then serves and
// answers commands over a pipe.
#ifndef PERFBENCH_SERVER_HOST_HPP
#define PERFBENCH_SERVER_HOST_HPP

#include <cstdint>

#include <sys/types.h>

#include "uhd/net/wire_stats.hpp"
#include "uhd/serve/serve_stats.hpp"
#include "workload.hpp"

namespace perfbench {

/// Medians over the child's set-ups.
struct setup_report {
    double setup_s = 0.0;   ///< median total set-up wall time
    setup_times phases;     ///< per-phase medians
    std::uint16_t port = 0; ///< where the kept system listens
};

/// The server's CPU clock and counters at one instant; the difference of
/// two samples is the server's work between them.
struct server_sample {
    std::int64_t cpu_ns = 0; ///< CPU time of every server thread
    uhd::serve::serve_stats engine;
    uhd::net::wire_stats wire;
};

/// Server work from `earlier` to `later` (counter fields; gauges such as
/// the live snapshot version are taken from `later`).
[[nodiscard]] server_sample operator-(server_sample later, const server_sample& earlier);

class server_host {
public:
    /// Fork the server process and wait until it serves. Must be called
    /// while the calling process has no other threads.
    server_host(const workload_spec& spec, const server_inputs& inputs);
    server_host(const server_host&) = delete;
    server_host& operator=(const server_host&) = delete;
    /// Stops the server process if finish() was not called.
    ~server_host();

    [[nodiscard]] const setup_report& setup() const noexcept { return setup_; }

    /// Read the server's CPU clock and counters now.
    [[nodiscard]] server_sample sample();

    /// Stop the server, reap the process and return its peak resident
    /// memory in MiB.
    [[nodiscard]] double finish();

private:
    void command(char c);
    void read_report(void* out, std::size_t size);

    pid_t pid_ = -1;
    int command_fd_ = -1; ///< parent -> child
    int report_fd_ = -1;  ///< child -> parent
    setup_report setup_;
};

} // namespace perfbench

#endif // PERFBENCH_SERVER_HOST_HPP

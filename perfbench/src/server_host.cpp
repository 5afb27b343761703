#include "server_host.hpp"

#include <cerrno>
#include <cstdio>
#include <exception>
#include <memory>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "stats.hpp"
#include "uhd/common/error.hpp"
#include "uhd/common/thread_pool.hpp"

namespace perfbench {

namespace {

/// Threads of the set-up pool (plus the calling thread: three lanes,
/// within the machine's four CPUs).
constexpr std::size_t setup_threads = 2;

bool write_all(int fd, const void* data, std::size_t size) {
    const auto* p = static_cast<const char*>(data);
    while (size > 0) {
        const ssize_t n = ::write(fd, p, size);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

bool read_all(int fd, void* data, std::size_t size) {
    auto* p = static_cast<char*>(data);
    while (size > 0) {
        const ssize_t n = ::read(fd, p, size);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/// The server process: set up, report, then serve until told to quit.
int serve(const workload_spec& spec, const server_inputs& inputs, int command_fd,
          int report_fd) {
    uhd::thread_pool pool(setup_threads);
    std::unique_ptr<hosted_system> system;
    std::vector<double> totals;
    std::vector<double> builds;
    std::vector<double> fits;
    std::vector<double> starts;
    for (std::size_t i = 0; i < setup_repeats; ++i) {
        system.reset(); // tear the previous set-up down first (untimed)
        system = std::make_unique<hosted_system>(spec, inputs, pool);
        totals.push_back(system->times().total());
        builds.push_back(system->times().encoder_build_s);
        fits.push_back(system->times().fit_s);
        starts.push_back(system->times().start_s);
    }
    setup_report setup;
    setup.setup_s = median(totals);
    setup.phases = {median(builds), median(fits), median(starts)};
    setup.port = system->port();
    if (!write_all(report_fd, &setup, sizeof(setup))) return 1;

    char c = 0;
    while (read_all(command_fd, &c, 1)) {
        if (c == 'S') {
            const server_sample now{process_cpu_ns(), system->engine().stats(),
                                    system->server().stats()};
            if (!write_all(report_fd, &now, sizeof(now))) return 1;
        } else if (c == 'Q') {
            system.reset();
            rusage usage{};
            getrusage(RUSAGE_SELF, &usage);
            const double peak_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
            return write_all(report_fd, &peak_mib, sizeof(peak_mib)) ? 0 : 1;
        }
    }
    return 1; // the parent went away without a quit command
}

} // namespace

server_host::server_host(const workload_spec& spec, const server_inputs& inputs) {
    int command_pipe[2] = {-1, -1};
    int report_pipe[2] = {-1, -1};
    if (::pipe(command_pipe) != 0 || ::pipe(report_pipe) != 0) {
        throw uhd::error("pipe() failed");
    }
    std::fflush(nullptr); // the child must not flush the parent's buffers
    pid_ = ::fork();
    if (pid_ < 0) throw uhd::error("fork() failed");
    if (pid_ == 0) {
        ::close(command_pipe[1]);
        ::close(report_pipe[0]);
        int status = 1;
        try {
            status = serve(spec, inputs, command_pipe[0], report_pipe[1]);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "server process: %s\n", e.what());
        }
        std::fflush(stderr);
        ::_exit(status);
    }
    ::close(command_pipe[0]);
    ::close(report_pipe[1]);
    command_fd_ = command_pipe[1];
    report_fd_ = report_pipe[0];
    read_report(&setup_, sizeof(setup_));
}

server_host::~server_host() {
    if (pid_ <= 0) return;
    // Closing the command pipe ends the child's loop even if it missed 'Q'.
    ::close(command_fd_);
    ::close(report_fd_);
    int status = 0;
    ::waitpid(pid_, &status, 0);
}

void server_host::command(char c) {
    if (!write_all(command_fd_, &c, 1)) throw uhd::error("server process is gone");
}

void server_host::read_report(void* out, std::size_t size) {
    if (!read_all(report_fd_, out, size)) {
        throw uhd::error("server process ended without reporting");
    }
}

server_sample server_host::sample() {
    command('S');
    server_sample out;
    read_report(&out, sizeof(out));
    return out;
}

server_sample operator-(server_sample later, const server_sample& earlier) {
    later.cpu_ns -= earlier.cpu_ns;
    uhd::serve::serve_stats& e = later.engine;
    e.queries -= earlier.engine.queries;
    e.batches -= earlier.engine.batches;
    e.kernel_calls -= earlier.engine.kernel_calls;
    e.snapshot_swaps -= earlier.engine.snapshot_swaps;
    e.raw_queries -= earlier.engine.raw_queries;
    e.encode_kernel_calls -= earlier.engine.encode_kernel_calls;
    uhd::net::wire_stats& w = later.wire;
    w.connections_accepted -= earlier.wire.connections_accepted;
    w.frames_in -= earlier.wire.frames_in;
    w.frames_out -= earlier.wire.frames_out;
    w.bytes_in -= earlier.wire.bytes_in;
    w.bytes_out -= earlier.wire.bytes_out;
    w.malformed_frames -= earlier.wire.malformed_frames;
    w.throttle_events -= earlier.wire.throttle_events;
    w.loop_cpu_ns -= earlier.wire.loop_cpu_ns;
    return later;
}

double server_host::finish() {
    command('Q');
    double peak_mib = 0.0;
    read_report(&peak_mib, sizeof(peak_mib));
    ::close(command_fd_);
    ::close(report_fd_);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw uhd::error("server process exited abnormally");
    }
    return peak_mib;
}

} // namespace perfbench

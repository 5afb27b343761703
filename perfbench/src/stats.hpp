// Sample statistics, clocks and trace spans shared by the harness.
#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Latency recorded for a request that failed: it misses every limit.
inline constexpr double missed = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least a share `p` (0 < p <= 1) of the sample at or below it. A
/// missed request sorts last, so failures push a percentile up, never
/// down. Returns 0 for an empty sample.
[[nodiscard]] double percentile(std::span<const double> sorted, double p);

/// Median of an unsorted sample (nearest rank; 0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// Samples needed above a percentile for it to be reported: the highest
/// percentile a sample supports is the one with at least this many
/// samples beyond it.
inline constexpr std::size_t tail_samples = 10;

/// Whether `count` samples support percentile `p` (at least tail_samples
/// of them lie beyond it).
[[nodiscard]] bool supports(std::size_t count, double p);

/// steady_clock in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

/// CPU time of the calling thread, nanoseconds.
[[nodiscard]] std::int64_t thread_cpu_ns();

/// CPU time of every thread of this process, nanoseconds.
[[nodiscard]] std::int64_t process_cpu_ns();

/// One timed interval of the traced run: a layer's call, or a request.
struct span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;      ///< unique within the trace
    std::uint64_t parent = 0;  ///< id of the span that caused it; 0 = root
    std::uint64_t request = 0; ///< spans of one request share this
};

/// Spans kept in memory during the traced run and written at exit.
class trace_log {
public:
    /// Record a span; returns its id (for children to name as parent).
    std::uint64_t add(std::string name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint64_t parent,
                      std::uint64_t request);

    [[nodiscard]] const std::vector<span>& spans() const noexcept {
        return spans_;
    }

    /// Self time of every span, in spans() order: its duration minus the
    /// durations of the spans that name it as parent.
    [[nodiscard]] std::vector<std::int64_t> self_ns() const;

    /// Write every span as one JSON object per line. Returns false on an
    /// I/O failure.
    [[nodiscard]] bool write(const std::string& path) const;

private:
    std::vector<span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP

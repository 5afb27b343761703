// Wall-clock stopwatch for the Table I runtime measurements.
#ifndef UHD_COMMON_STOPWATCH_HPP
#define UHD_COMMON_STOPWATCH_HPP

#include <chrono>

namespace uhd {

/// Monotonic wall-clock stopwatch.
class stopwatch {
public:
    stopwatch() : start_(clock::now()) {}

    /// Restart timing from now.
    void reset() { start_ = clock::now(); }

    /// Seconds elapsed since construction or the last reset().
    [[nodiscard]] double seconds() const {
        return std::chrono::duration<double>(clock::now() - start_).count();
    }

    /// Milliseconds elapsed since construction or the last reset().
    [[nodiscard]] double milliseconds() const { return seconds() * 1e3; }

private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

} // namespace uhd

#endif // UHD_COMMON_STOPWATCH_HPP

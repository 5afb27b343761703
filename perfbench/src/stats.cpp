#include "stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <unordered_map>

namespace perfbench {

double percentile(std::span<const double> sorted, double p) {
    if (sorted.empty()) return 0.0;
    const double n = static_cast<double>(sorted.size());
    // Rank in 1..n; the small epsilon keeps p * n = 50.000000001 (a
    // floating-point artefact of an exact rank) from rounding up a rank.
    auto rank = static_cast<std::size_t>(std::ceil(p * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return percentile(values, 0.5);
}

bool supports(std::size_t count, double p) {
    const double beyond = (1.0 - p) * static_cast<double>(count);
    return beyond + 1e-9 >= static_cast<double>(tail_samples);
}

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

std::int64_t clock_ns(clockid_t id) {
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

} // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

std::uint64_t trace_log::add(std::string name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t parent,
                             std::uint64_t request) {
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back({std::move(name), start_ns, end_ns, id, parent, request});
    return id;
}

std::vector<std::int64_t> trace_log::self_ns() const {
    std::unordered_map<std::uint64_t, std::int64_t> children;
    for (const span& s : spans_) {
        if (s.parent != 0) children[s.parent] += s.end_ns - s.start_ns;
    }
    std::vector<std::int64_t> out;
    out.reserve(spans_.size());
    for (const span& s : spans_) {
        const auto it = children.find(s.id);
        out.push_back(s.end_ns - s.start_ns -
                      (it == children.end() ? 0 : it->second));
    }
    return out;
}

bool trace_log::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<std::int64_t> self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                     "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld, "
                     "\"self_ns\": %lld}\n",
                     s.name.c_str(), static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench

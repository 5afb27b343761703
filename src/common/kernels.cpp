// Backend registry and process-wide dispatch for uhd::kernels.
//
// Selection happens once, on the first dispatched kernel call (or an
// explicit force_backend): resolve UHD_BACKEND (default "auto") against
// the runtime CPU probe, cache the winning table in an atomic pointer, and
// serve every subsequent call with one acquire-load. Invalid requests —
// an unknown name, or a backend the probe rejects — throw uhd::error with
// a diagnostic that lists the compiled-in choices and the probed feature
// set, so a typo'd override fails the first kernel call loudly instead of
// silently computing on the wrong engine.
#include "uhd/common/kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "kernels_detail.hpp"
#include "uhd/common/error.hpp"

namespace uhd::kernels {

namespace {

/// Compiled-in backends, widest-last; "auto" picks the last admissible one.
const kernel_table* const registry[] = {
    &detail::scalar_table(),
    &detail::swar_table(),
#ifdef UHD_KERNELS_HAVE_AVX2
    &detail::avx2_table(),
#endif
#ifdef UHD_KERNELS_HAVE_AVX512
    &detail::avx512_table(),
#endif
};

std::atomic<const kernel_table*> g_active{nullptr};

[[nodiscard]] std::string valid_names() {
    std::string names = "auto";
    for (const kernel_table* t : registry) {
        names += ", ";
        names += t->name;
    }
    return names;
}

/// The compiled-in backends a given probe admits, e.g. "scalar, swar, avx2"
/// — the actionable half of the inadmissible-backend diagnostic.
[[nodiscard]] std::string admissible_names(const cpu_features& features) {
    std::string names;
    for (const kernel_table* t : registry) {
        if (!t->supported(features)) continue;
        if (!names.empty()) names += ", ";
        names += t->name;
    }
    return names;
}

[[nodiscard]] const char* env_backend() noexcept {
    const char* value = std::getenv("UHD_BACKEND");
    return value != nullptr ? value : "";
}

} // namespace

std::span<const kernel_table* const> compiled_backends() noexcept {
    return registry;
}

const kernel_table* find_backend(std::string_view name) noexcept {
    for (const kernel_table* t : registry) {
        if (name == t->name) return t;
    }
    return nullptr;
}

std::span<const kernel_table* const> admissible_backends() {
    // Probed once: admissibility cannot change within a process.
    static const std::vector<const kernel_table*> admitted = [] {
        std::vector<const kernel_table*> out;
        for (const kernel_table* t : registry) {
            if (t->supported(cpu())) out.push_back(t);
        }
        return out;
    }();
    return admitted;
}

const kernel_table& select_backend(std::string_view request,
                                   const cpu_features& features) {
    if (request.empty() || request == "auto") {
        const kernel_table* widest = nullptr;
        for (const kernel_table* t : registry) {
            if (t->supported(features)) widest = t;
        }
        // scalar and swar are unconditionally admissible, so auto always
        // resolves; the check guards a hypothetically empty registry.
        UHD_REQUIRE(widest != nullptr, "no admissible kernel backend compiled in");
        return *widest;
    }
    const kernel_table* t = find_backend(request);
    UHD_REQUIRE(t != nullptr, "UHD_BACKEND='" + std::string(request) +
                                  "' is not a compiled-in kernel backend (valid: " +
                                  valid_names() + ")");
    UHD_REQUIRE(t->supported(features),
                "UHD_BACKEND='" + std::string(request) +
                    "' was requested but the CPU probe rejects it (probed: " +
                    features.to_string() + "; admissible backends: " +
                    admissible_names(features) +
                    "); use UHD_BACKEND=auto or an admissible backend");
    return *t;
}

const kernel_table& active() {
    const kernel_table* t = g_active.load(std::memory_order_acquire);
    if (t == nullptr) {
        const kernel_table& selected = select_backend(env_backend(), cpu());
        // First selection wins on a race; both racers resolved the same
        // environment against the same probe, so the result is identical.
        const kernel_table* expected = nullptr;
        g_active.compare_exchange_strong(expected, &selected,
                                         std::memory_order_acq_rel);
        t = g_active.load(std::memory_order_acquire);
    }
    return *t;
}

// uhd-lint: test-reference test_backend_dispatch, test_block_kernels and test_inference_snapshot pin each backend in turn with it
void force_backend(std::string_view request) {
    const kernel_table& selected = select_backend(request, cpu());
    g_active.store(&selected, std::memory_order_release);
}

std::string_view backend_override() noexcept { return env_backend(); }

} // namespace uhd::kernels

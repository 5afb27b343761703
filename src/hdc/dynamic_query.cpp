#include "uhd/hdc/dynamic_query.hpp"

#include <algorithm>
#include <utility>

#include "uhd/common/error.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/hdc/inference_snapshot.hpp"

namespace uhd::hdc {

// uhd-lint: test-reference test_dynamic_query and test_serve_engine build a one-stage cascade with it
dynamic_query_policy dynamic_query_policy::full_scan(const class_memory& mem) {
    dynamic_query_policy policy;
    policy.stages_.push_back(dynamic_stage{mem.words_per_class(), 0});
    return policy;
}

dynamic_query_policy dynamic_query_policy::ladder(const class_memory& mem) {
    const std::size_t words = mem.words_per_class();
    dynamic_query_policy policy;
    for (const std::size_t divisor : {8u, 4u, 2u}) {
        const std::size_t window = words / divisor;
        if (window == 0) continue;
        if (!policy.stages_.empty() && policy.stages_.back().window_words == window) {
            continue;
        }
        policy.stages_.push_back(dynamic_stage{window, disabled_threshold});
    }
    // The final stage scans everything and always answers.
    if (!policy.stages_.empty() && policy.stages_.back().window_words == words) {
        policy.stages_.pop_back();
    }
    policy.stages_.push_back(dynamic_stage{words, 0});
    return policy;
}

dynamic_query_policy dynamic_query_policy::calibrate(
    const class_memory& mem, std::span<const std::uint64_t> queries,
    std::size_t count, double target_agreement) {
    UHD_REQUIRE(target_agreement >= 0.0 && target_agreement <= 1.0,
                "target agreement must be a rate in [0, 1]");
    const std::size_t words = mem.words_per_class();
    UHD_REQUIRE(queries.size() >= count * words,
                "calibration query buffer too small");
    dynamic_query_policy policy = ladder(mem);
    if (count == 0) return policy; // nothing to calibrate on: stay full-scan

    // One incremental pass per query (the same word economy as answer()):
    // one kernel call per stage extends the per-class distances over the
    // stage's new words and returns its (argmin, margin); the final stage
    // yields the full-D answer the agreement flags compare against.
    // Bit-identical to a fresh prefix scan per stage at a fraction of the
    // words touched.
    const std::size_t early_stages = policy.stages_.size() - 1;
    std::vector<std::vector<std::pair<std::uint64_t, bool>>> stage_outcomes(
        early_stages, std::vector<std::pair<std::uint64_t, bool>>(count));
    std::vector<std::uint64_t> distances(mem.classes());
    std::vector<std::pair<std::size_t, std::uint64_t>> per_stage(early_stages);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t* query = queries.data() + i * words;
        std::fill(distances.begin(), distances.end(), 0);
        std::size_t scanned_to = 0;
        std::size_t full_answer = 0;
        for (std::size_t s = 0; s < policy.stages_.size(); ++s) {
            kernels::argmin2_result r{};
            kernels::hamming_block_argmin2_prefix(
                query, words, 1, mem.rows().data(), words, scanned_to,
                policy.stages_[s].window_words, mem.classes(), distances.data(), &r);
            scanned_to = policy.stages_[s].window_words;
            if (s < early_stages) {
                const std::uint64_t margin = r.runner_up == ~std::uint64_t{0}
                                                 ? ~std::uint64_t{0}
                                                 : r.runner_up - r.distance;
                per_stage[s] = {r.index, margin};
            } else {
                full_answer = r.index;
            }
        }
        for (std::size_t s = 0; s < early_stages; ++s) {
            stage_outcomes[s][i] = {per_stage[s].second,
                                    per_stage[s].first == full_answer};
        }
    }

    for (std::size_t s = 0; s + 1 < policy.stages_.size(); ++s) {
        dynamic_stage& stage = policy.stages_[s];
        // (margin, agrees-with-full-D) per calibration query at this window.
        std::vector<std::pair<std::uint64_t, bool>>& outcomes = stage_outcomes[s];
        std::sort(outcomes.begin(), outcomes.end());
        // Suffix agreement counts: agree[k] = #agreements among outcomes
        // [k, count). The candidate thresholds are the distinct margins;
        // picking T = outcomes[k].first keeps exactly the suffix [k', count)
        // where k' is the first index with that margin.
        std::vector<std::size_t> agree_suffix(count + 1, 0);
        for (std::size_t k = count; k-- > 0;) {
            agree_suffix[k] = agree_suffix[k + 1] + (outcomes[k].second ? 1 : 0);
        }
        stage.margin_threshold = disabled_threshold;
        for (std::size_t k = 0; k < count; ++k) {
            if (k > 0 && outcomes[k].first == outcomes[k - 1].first) continue;
            const std::size_t kept = count - k;
            if (static_cast<double>(agree_suffix[k]) >=
                target_agreement * static_cast<double>(kept)) {
                // Smallest admissible threshold = most early exits. Clamped
                // below the disabled sentinel: a saturated margin (single-row
                // memory) must calibrate to "always exit", not "disabled".
                stage.margin_threshold =
                    std::min(outcomes[k].first, disabled_threshold - 1);
                break;
            }
        }
    }
    return policy;
}

std::size_t dynamic_query_policy::answer(const class_memory& mem,
                                         std::span<const std::uint64_t> query_words,
                                         dynamic_query_stats* stats) const {
    std::size_t index = 0;
    answer_block(mem, query_words, 1, {&index, 1},
                 stats != nullptr ? std::span<dynamic_query_stats>(stats, 1)
                                  : std::span<dynamic_query_stats>());
    return index;
}

void dynamic_query_policy::answer_block(const class_memory& mem,
                                        std::span<const std::uint64_t> queries_words,
                                        std::size_t n_queries,
                                        std::span<std::size_t> out,
                                        std::span<dynamic_query_stats> stats) const {
    UHD_REQUIRE(!stages_.empty(), "answer_block() on a default-constructed policy");
    UHD_REQUIRE(mem.words_per_class() == full_words(),
                "policy was built for a different row width");
    const std::size_t words = mem.words_per_class();
    UHD_REQUIRE(queries_words.size() == n_queries * words,
                "query block word count mismatch");
    UHD_REQUIRE(out.size() == n_queries, "prediction buffer size mismatch");
    UHD_REQUIRE(stats.empty() || stats.size() == n_queries,
                "stats buffer size mismatch");
    if (n_queries == 0) return;
    const std::size_t classes = mem.classes();
    // Per-thread block state: a compacting copy of the still-active queries,
    // their running per-class distances, each slot's original index, and
    // each slot's stage result. Compaction keeps the active set contiguous,
    // so every stage is one search call that streams each class row's new
    // words once for all survivors.
    static thread_local std::vector<std::uint64_t> active_queries;
    static thread_local std::vector<std::uint64_t> distances;
    static thread_local std::vector<std::size_t> origin;
    static thread_local std::vector<kernels::argmin2_result> results;
    active_queries.assign(queries_words.begin(), queries_words.end());
    distances.assign(n_queries * classes, 0);
    origin.resize(n_queries);
    results.resize(n_queries);
    for (std::size_t q = 0; q < n_queries; ++q) origin[q] = q;

    std::size_t active = n_queries;
    std::size_t scanned_to = 0;
    for (std::size_t s = 0; s < stages_.size() && active > 0; ++s) {
        const dynamic_stage& stage = stages_[s];
        kernels::hamming_block_argmin2_prefix(active_queries.data(), words, active,
                                              mem.rows().data(), words, scanned_to,
                                              stage.window_words, classes,
                                              distances.data(), results.data());
        scanned_to = stage.window_words;
        const bool last = s + 1 == stages_.size();
        std::size_t kept = 0;
        for (std::size_t slot = 0; slot < active; ++slot) {
            const kernels::argmin2_result& r = results[slot];
            const std::uint64_t margin = r.runner_up == ~std::uint64_t{0}
                                             ? ~std::uint64_t{0}
                                             : r.runner_up - r.distance;
            if (last || (stage.margin_threshold != disabled_threshold &&
                         margin >= stage.margin_threshold)) {
                const std::size_t q = origin[slot];
                out[q] = r.index;
                if (!stats.empty()) {
                    stats[q].exit_stage = s;
                    stats[q].window_words = stage.window_words;
                    stats[q].words_scanned = classes * stage.window_words;
                }
                continue;
            }
            if (kept != slot) {
                std::copy_n(active_queries.begin() +
                                static_cast<std::ptrdiff_t>(slot * words),
                            words,
                            active_queries.begin() +
                                static_cast<std::ptrdiff_t>(kept * words));
                std::copy_n(distances.begin() +
                                static_cast<std::ptrdiff_t>(slot * classes),
                            classes,
                            distances.begin() +
                                static_cast<std::ptrdiff_t>(kept * classes));
                origin[kept] = origin[slot];
            }
            ++kept;
        }
        active = kept;
    }
}

// --- snapshot overload ----------------------------------------------------

void dynamic_query_policy::answer_block(const inference_snapshot& snap,
                                        std::span<const std::uint64_t> queries_words,
                                        std::size_t n_queries,
                                        std::span<std::size_t> out,
                                        std::span<dynamic_query_stats> stats) const {
    answer_block(snap.memory(), queries_words, n_queries, out, stats);
}

} // namespace uhd::hdc

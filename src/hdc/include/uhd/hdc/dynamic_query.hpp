// Dynamic-dimension early-exit inference — the "Dynamic" half of uHD's
// title as a first-class query path: a query is first answered from a
// D/8-bit prefix of every packed class row, and only escalates to D/4,
// D/2, and finally the full D when the top-1/top-2 Hamming margin of the
// truncated scan is too small to be trusted.
//
// The idea follows Schmuck et al.'s combinational associative memory
// (Hamming search degrades gracefully under dimension truncation) and the
// dimension/accuracy trade-off framing of the HDC literature: on easy
// queries the class gap is visible in the first few hundred bits, so most
// of the memory never needs to be read. Margin thresholds are calibrated
// from held-out data for a target agreement rate with the full-D answer.
//
// Determinism: the cascade extends one running distance per class
// incrementally (kernels::hamming_block_extend), so its full-D stage is
// bit-identical to class_memory::nearest() — same exact distances, same
// first-wins tie rule. Calibration is a deterministic function of the
// memory and the calibration queries (no RNG, no data-dependent float
// accumulation order).
#ifndef UHD_HDC_DYNAMIC_QUERY_HPP
#define UHD_HDC_DYNAMIC_QUERY_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "uhd/hdc/class_memory.hpp"

namespace uhd::hdc {

class inference_snapshot; // the immutable read state policies serve against

/// One stage of the early-exit cascade.
struct dynamic_stage {
    /// Prefix window (64-bit words per class row) this stage scans up to.
    std::size_t window_words = 0;
    /// Exit here when runner_up - best >= margin_threshold (in window bits).
    /// dynamic_query_policy::disabled_threshold means never exit here.
    std::uint64_t margin_threshold = 0;
};

/// Per-query outcome of a cascade query (for stats and benchmarking).
struct dynamic_query_stats {
    std::size_t exit_stage = 0;    ///< index into stages() that answered
    std::size_t window_words = 0;  ///< prefix window the answer used
    std::size_t words_scanned = 0; ///< packed words XOR+popcounted
                                   ///< (= classes * window_words; windows
                                   ///< grow incrementally, never re-scanned)
};

/// Aggregate cascade statistics over many queries — the one definition of
/// the exit-histogram / words-scanned / agreement accounting shared by the
/// benches and demos.
struct dynamic_query_summary {
    std::vector<std::size_t> exits; ///< queries answered per stage
    std::uint64_t words_scanned = 0;
    std::size_t queries = 0;
    std::size_t agreements = 0; ///< answers matching full-D inference

    explicit dynamic_query_summary(std::size_t stages) : exits(stages, 0) {}

    /// Fold in one query's outcome.
    void record(const dynamic_query_stats& stats, bool agreed_with_full) {
        ++exits[stats.exit_stage];
        words_scanned += stats.words_scanned;
        ++queries;
        if (agreed_with_full) ++agreements;
    }

    /// Packed words XOR+popcounted per query, averaged.
    [[nodiscard]] double avg_words_scanned() const noexcept {
        return queries == 0 ? 0.0
                            : static_cast<double>(words_scanned) /
                                  static_cast<double>(queries);
    }

    /// Fraction of full-D argmax agreement.
    [[nodiscard]] double agreement_rate() const noexcept {
        return queries == 0 ? 1.0
                            : static_cast<double>(agreements) /
                                  static_cast<double>(queries);
    }
};

/// Calibrated early-exit policy over a packed class memory.
///
/// A policy is a ladder of prefix windows with per-stage margin
/// thresholds; the final stage always covers every word and always
/// answers. Policies are plain data: one policy can serve any number of
/// concurrent queries against any class_memory with the same word count.
class dynamic_query_policy {
public:
    /// Threshold value that disables early exit at a stage.
    static constexpr std::uint64_t disabled_threshold = ~std::uint64_t{0};

    /// Single full-scan stage: answer() is exactly nearest().
    [[nodiscard]] static dynamic_query_policy full_scan(const class_memory& mem);

    /// The D/8 -> D/4 -> D/2 -> D window ladder (deduplicated, zero-word
    /// windows dropped) with every early stage disabled. calibrate() picks
    /// the thresholds that enable them.
    [[nodiscard]] static dynamic_query_policy ladder(const class_memory& mem);

    /// Snapshot overloads: policies are plain data keyed only on the row
    /// width, so one policy built for a snapshot serves every later
    /// snapshot of the same geometry — calibrate once, publish many times.
    [[nodiscard]] static dynamic_query_policy full_scan(
        const inference_snapshot& snap);
    [[nodiscard]] static dynamic_query_policy ladder(const inference_snapshot& snap);
    [[nodiscard]] static dynamic_query_policy calibrate(
        const inference_snapshot& snap, std::span<const std::uint64_t> queries,
        std::size_t count, double target_agreement);

    /// Calibrate the ladder on `count` held-out packed queries (each
    /// mem.words_per_class() words, back-to-back in `queries`, same packing
    /// as nearest()). For each early stage, the chosen threshold is the
    /// smallest margin T such that among calibration queries whose stage
    /// margin reaches T, the truncated argmin agrees with the full-D answer
    /// at rate >= target_agreement; stages where no threshold reaches the
    /// target stay disabled. Stages are calibrated independently on the
    /// whole calibration set (not conditioned on earlier exits), which is
    /// the conservative choice: queries that would have exited earlier only
    /// ever see *larger* windows than the one they were calibrated at.
    [[nodiscard]] static dynamic_query_policy calibrate(
        const class_memory& mem, std::span<const std::uint64_t> queries,
        std::size_t count, double target_agreement);

    /// The window ladder (ascending windows; the last stage is full-width
    /// with threshold 0).
    [[nodiscard]] std::span<const dynamic_stage> stages() const noexcept {
        return {stages_.data(), stages_.size()};
    }

    /// Words per class row the policy was built for.
    [[nodiscard]] std::size_t full_words() const noexcept {
        return stages_.empty() ? 0 : stages_.back().window_words;
    }

    /// Answer a packed query through the cascade: extend the per-class
    /// distances stage by stage and stop at the first stage whose margin
    /// clears its threshold (the final stage always answers). `query_words`
    /// must hold mem.words_per_class() words with tail bits zero. When every
    /// early stage is disabled — or the exit lands on the final stage — the
    /// result is bit-identical to mem.nearest(query_words). A one-query
    /// answer_block() call: there is no separate single-query cascade.
    [[nodiscard]] std::size_t answer(const class_memory& mem,
                                     std::span<const std::uint64_t> query_words,
                                     dynamic_query_stats* stats = nullptr) const;

    /// Answer against a snapshot's packed memory (see the class_memory
    /// overload for the contract).
    [[nodiscard]] std::size_t answer(const inference_snapshot& snap,
                                     std::span<const std::uint64_t> query_words,
                                     dynamic_query_stats* stats = nullptr) const;

    /// Answer a block of `n_queries` packed queries (mem.words_per_class()
    /// words each, back-to-back in `queries_words`) through the cascade in
    /// one stage-synchronized sweep: every stage extends the distances of
    /// all still-active queries with one register-blocked kernel call
    /// (kernels::hamming_block_extend), queries whose margin clears the
    /// stage threshold are answered, and the survivors are compacted so the
    /// next stage streams each class row once for the whole remainder.
    /// out[q] — and, when `stats` is non-empty (it must then hold n_queries
    /// slots), stats[q] — do not depend on the block size: the per-query
    /// distances, margins, and exit decisions are untouched by the blocking.
    void answer_block(const class_memory& mem,
                      std::span<const std::uint64_t> queries_words,
                      std::size_t n_queries, std::span<std::size_t> out,
                      std::span<dynamic_query_stats> stats = {}) const;

    /// Block cascade against a snapshot's packed memory.
    void answer_block(const inference_snapshot& snap,
                      std::span<const std::uint64_t> queries_words,
                      std::size_t n_queries, std::span<std::size_t> out,
                      std::span<dynamic_query_stats> stats = {}) const;

private:
    std::vector<dynamic_stage> stages_;
};

} // namespace uhd::hdc

#endif // UHD_HDC_DYNAMIC_QUERY_HPP

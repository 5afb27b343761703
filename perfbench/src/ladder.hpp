// The traced run's layer ladder: each layer's public entry point timed
// from outside, one engine micro-batch of the workload's own pool at a
// time, so the rungs of one batch add up to its wire round trip.
//
//   net.roundtrip  pipelined wire_client round trip of the batch (root)
//   └ serve.engine inference_engine round trip (try_submit[_raw])
//     ├ core.encode      uhd_encoder::encode_batch       (raw workloads)
//     ├ common.binarize  kernels::sign_binarize per query
//     ├ hdc.search       inference_snapshot::predict_packed_block
//     └ hdc.cascade      dynamic_query_policy::answer_block (dynamic queries)
//
// A rung that is not on the workload's request path (encode on a
// pre-encoded workload, the cascade where no query is dynamic) is still
// timed, as a root span of its own, and left out of the sum.
#ifndef PERFBENCH_LADDER_HPP
#define PERFBENCH_LADDER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

/// A rung's median share of one request, for the premise check.
struct rung_share {
    std::string name;
    double us = 0.0; ///< median per-query contribution to the round trip
};

struct ladder_result {
    double encode_us = 0.0;     ///< per image
    double binarize_us = 0.0;   ///< per query
    double search_us = 0.0;     ///< per full-scan query
    double cascade_us = 0.0;    ///< per cascaded query
    double cascade_words = 0.0; ///< packed words scanned per cascaded query
    double engine_us = 0.0;     ///< per query of the batch
    double serve_self_us = 0.0; ///< engine round trip minus its children
    double net_self_us = 0.0;   ///< wire round trip minus the engine's
    double ping_us = 0.0;
    double publish_us = 0.0;
    double partial_fit_us = 0.0;
    double snapshot_us = 0.0;
    std::vector<rung_share> path; ///< on-path rungs of one request
    std::uint64_t batches = 0;
    std::uint64_t attempted = 0; ///< ladder requests checked
    std::uint64_t failed = 0;    ///< of those, answered wrongly or not at all
};

/// Run the ladder for about `seconds` against the server on `port`, which
/// answers from the oracle's snapshot `version`. Spans go to `trace`.
[[nodiscard]] ladder_result run_ladder(const workload_spec& spec,
                                       const server_inputs& server,
                                       const client_inputs& client,
                                       const oracle& oracle, std::uint16_t port,
                                       std::uint64_t version, double seconds,
                                       trace_log& trace);

} // namespace perfbench

#endif // PERFBENCH_LADDER_HPP

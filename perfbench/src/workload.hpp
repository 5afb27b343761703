// The four workloads, their seeded inputs, the system under test built
// from those inputs, and the in-process oracle that checks its answers.
#ifndef PERFBENCH_WORKLOAD_HPP
#define PERFBENCH_WORKLOAD_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "uhd/common/thread_pool.hpp"
#include "uhd/core/model.hpp"
#include "uhd/data/dataset.hpp"
#include "uhd/hdc/dynamic_query.hpp"
#include "uhd/hdc/inference_snapshot.hpp"
#include "uhd/net/wire_format.hpp"
#include "uhd/net/wire_server.hpp"
#include "uhd/serve/inference_engine.hpp"

namespace perfbench {

/// Requests in flight on the load generator's connection.
inline constexpr std::size_t window = 128;
/// The server publishes a fresh snapshot every this many partial_fits.
inline constexpr std::size_t publish_every = 64;
/// Engine micro-batch size (also the traced run's batch).
inline constexpr std::size_t max_batch = 32;
/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t setup_repeats = 9;

/// One traffic mix. Every knob is fixed here; only the seed varies.
struct workload_spec {
    std::string_view name;
    std::size_t dim = 1024;
    std::size_t classes = 10;
    bool raw = true;               ///< predicts carry raw pixels, else
                                   ///< pre-encoded int32 queries
    std::size_t dynamic_every = 0; ///< pool entry i goes as predict_dynamic
                                   ///< when i % dynamic_every == 0 (0: never)
    std::size_t fit_every = 0;     ///< every fit_every-th drive request is a
                                   ///< partial_fit (0: predicts only)
    std::size_t train_images = 0;  ///< initial fit set
    std::size_t pool_size = 0;     ///< labelled query pool
    std::size_t fits = 0;          ///< partial_fit stream: sent in the drive
                                   ///< (online_learn) or as a probe after it
};

/// The workloads, in BENCHMARK.json order.
[[nodiscard]] std::span<const workload_spec> workloads();

/// Look a workload up by name (nullptr when unknown).
[[nodiscard]] const workload_spec* find_workload(std::string_view name);

/// What the server side receives: generated from the seed, never read
/// from the environment.
struct server_inputs {
    uhd::data::dataset train;       ///< initial fit
    uhd::data::dataset calibration; ///< held-out set for cascade calibration
};

/// What the load generator sends, with the true labels.
struct client_inputs {
    uhd::data::dataset pool;           ///< labelled query pool
    std::vector<std::uint32_t> order;  ///< pool visiting order
    uhd::data::dataset fit_stream;     ///< partial_fit images + labels
};

[[nodiscard]] server_inputs make_server_inputs(const workload_spec& spec,
                                               std::uint64_t seed);
[[nodiscard]] client_inputs make_client_inputs(const workload_spec& spec,
                                               std::uint64_t seed);

/// Wall time of each set-up phase, seconds.
struct setup_times {
    double encoder_build_s = 0.0; ///< encoder + model construction
    double fit_s = 0.0;           ///< fit_parallel (+ cascade calibration)
    double start_s = 0.0;         ///< snapshot, engine and server start
    [[nodiscard]] double total() const noexcept {
        return encoder_build_s + fit_s + start_s;
    }
};

/// A trained model and, where the workload sends predict_dynamic, its
/// calibrated cascade.
struct trained_model {
    std::unique_ptr<uhd::core::uhd_model> model;
    std::optional<uhd::hdc::dynamic_query_policy> policy;
};

/// Construct and fit the workload's model (timing both phases into
/// `times` when given). The server and the oracle both build through here.
[[nodiscard]] trained_model train_model(const workload_spec& spec,
                                        const server_inputs& inputs,
                                        uhd::thread_pool& pool,
                                        setup_times* times = nullptr);

/// Engine options every workload serves with: one worker, 32-request
/// micro-batches, the off-loop encode stage on raw workloads.
[[nodiscard]] uhd::serve::engine_options engine_options_for(
    const workload_spec& spec, const uhd::core::uhd_model& model);

/// Start an engine over the model's snapshot (with its cascade, if any).
[[nodiscard]] std::unique_ptr<uhd::serve::inference_engine> start_engine(
    const workload_spec& spec, const trained_model& trained);

/// The system under test: model, engine and wire server on one reactor.
class hosted_system {
public:
    hosted_system(const workload_spec& spec, const server_inputs& inputs,
                  uhd::thread_pool& pool);
    hosted_system(const hosted_system&) = delete;
    hosted_system& operator=(const hosted_system&) = delete;
    ~hosted_system();

    [[nodiscard]] const setup_times& times() const noexcept { return times_; }
    [[nodiscard]] std::uint16_t port() const noexcept { return server_->port(); }
    [[nodiscard]] const uhd::serve::inference_engine& engine() const noexcept {
        return *engine_;
    }
    [[nodiscard]] const uhd::net::wire_server& server() const noexcept {
        return *server_;
    }

private:
    setup_times times_;
    trained_model trained_;
    std::unique_ptr<uhd::serve::inference_engine> engine_;
    std::unique_ptr<uhd::net::wire_server> server_;
};

/// In-process oracle: the same model built from the same inputs, with the
/// partial_fit stream replayed in order. It knows the answer to every
/// predict under every snapshot the server publishes, and every fit reply.
class oracle {
public:
    oracle(const workload_spec& spec, const server_inputs& inputs,
           const client_inputs& client, uhd::thread_pool& pool);

    /// Expected label of pool entry `i` from the snapshot `version`;
    /// nullopt when the server should never have answered from it.
    [[nodiscard]] std::optional<std::uint32_t> label(
        std::size_t i, std::uint64_t version) const;

    /// Expected reply to the `k`-th partial_fit (k from 1).
    [[nodiscard]] uhd::net::partial_fit_reply fit_reply(std::size_t k) const;

    /// Version the server answers from before any partial_fit.
    [[nodiscard]] std::uint64_t initial_version() const noexcept;

    /// Version the server answers predicts from after the drive: once the
    /// whole fit stream is in on online_learn, the initial one elsewhere
    /// (their fit probe follows the last predict).
    [[nodiscard]] std::uint64_t serving_version() const noexcept;

    /// The freshly fitted model (before any partial_fit) and its cascade.
    [[nodiscard]] const trained_model& initial() const noexcept {
        return initial_;
    }

    /// Pool queries encoded by the model's encoder, image-major.
    [[nodiscard]] std::span<const std::int32_t> encoded_pool() const noexcept {
        return encoded_;
    }

    /// Whether pool entry `i` is sent as predict_dynamic.
    [[nodiscard]] bool dynamic(std::size_t i) const noexcept;

    /// Published snapshot `version` (nullptr if never published).
    [[nodiscard]] const uhd::hdc::inference_snapshot* snapshot(
        std::uint64_t version) const;

private:
    struct published {
        std::uint64_t version = 0;
        uhd::hdc::inference_snapshot snapshot;
        std::vector<std::uint32_t> labels; ///< per pool entry
    };
    [[nodiscard]] const published* find(std::uint64_t version) const;
    void label_pool(published& p) const;

    const workload_spec& spec_;
    trained_model initial_;
    std::vector<std::int32_t> encoded_;
    std::vector<published> published_;                  ///< ascending versions
                                                        ///< a predict can see
    std::vector<uhd::net::partial_fit_reply> fit_replies_;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HPP

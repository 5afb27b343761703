#include "workload.hpp"

#include <algorithm>
#include <array>

#include "stats.hpp"
#include "uhd/common/error.hpp"
#include "uhd/common/rng.hpp"
#include "uhd/data/synthetic.hpp"

namespace perfbench {

using namespace uhd;

namespace {

// name, dim, classes, raw, dynamic_every, fit_every, train, pool, fits
// The cascaded and partial_fit shares are chosen, not taken from a published
// mix; README.md ("Traffic shares") gives the measured basis for each.
constexpr std::array<workload_spec, 4> specs = {{
    {"raw_query", 1024, 10, true, 0, 0, 30000, 4096, 98305},
    {"wide_search", 1024, 4096, false, 4, 0, 4 * 4096, 4096, 98305},
    {"encoded_small", 1024, 10, false, 0, 0, 30000, 4096, 98305},
    {"online_learn", 8192, 10, true, 0, 32, 2000, 2048, 8193},
}};

constexpr data::image_shape digit_shape{28, 28, 1};
/// Per-pixel noise around a wide_search class prototype (+/- this much).
constexpr int prototype_noise = 40;
/// Cascade calibration target: agreement with the full scan.
constexpr double cascade_agreement = 0.99;

/// Independent stream seeds derived from the run seed.
enum class stream : std::uint64_t {
    train = 1,
    pool,
    fits,
    calibration,
    order,
    prototypes,
};

std::uint64_t sub_seed(std::uint64_t seed, stream s) {
    return hash64(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(s));
}

/// wide_search class prototypes: one random 28x28 image per class.
std::vector<std::uint8_t> make_prototypes(std::size_t classes, std::uint64_t seed) {
    std::vector<std::uint8_t> protos(classes * digit_shape.pixels());
    xoshiro256ss rng(sub_seed(seed, stream::prototypes));
    for (std::uint8_t& v : protos) v = static_cast<std::uint8_t>(rng.next() >> 56);
    return protos;
}

/// `count` noisy copies of the prototypes: class i % classes when
/// `cycle`, else a uniformly drawn class.
data::dataset noisy_samples(std::span<const std::uint8_t> protos,
                            std::size_t classes, std::size_t count, bool cycle,
                            std::uint64_t seed) {
    const std::size_t pixels = digit_shape.pixels();
    data::dataset out(digit_shape, classes);
    xoshiro256ss rng(seed);
    std::vector<std::uint8_t> img(pixels);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t c = cycle ? i % classes : rng.next_below(classes);
        for (std::size_t p = 0; p < pixels; ++p) {
            const int noise = static_cast<int>(rng.next_below(2 * prototype_noise + 1)) -
                              prototype_noise;
            img[p] = static_cast<std::uint8_t>(
                std::clamp(static_cast<int>(protos[c * pixels + p]) + noise, 0, 255));
        }
        out.add(img, c);
    }
    return out;
}

/// Ten classes are synthetic digits; more classes than the digit generator
/// has are noisy random prototypes, genuinely distinct so the cascade has
/// real margins to exit on.
bool wide(const workload_spec& spec) { return spec.classes > 10; }

} // namespace

std::span<const workload_spec> workloads() { return specs; }

const workload_spec* find_workload(std::string_view name) {
    for (const workload_spec& spec : specs) {
        if (spec.name == name) return &spec;
    }
    return nullptr;
}

server_inputs make_server_inputs(const workload_spec& spec, std::uint64_t seed) {
    if (wide(spec)) {
        const std::vector<std::uint8_t> protos = make_prototypes(spec.classes, seed);
        return {noisy_samples(protos, spec.classes, spec.train_images, true,
                              sub_seed(seed, stream::train)),
                noisy_samples(protos, spec.classes, spec.classes, true,
                              sub_seed(seed, stream::calibration))};
    }
    return {data::make_synthetic_digits(spec.train_images, sub_seed(seed, stream::train)),
            data::make_synthetic_digits(1000, sub_seed(seed, stream::calibration))};
}

client_inputs make_client_inputs(const workload_spec& spec, std::uint64_t seed) {
    client_inputs out;
    if (wide(spec)) {
        const std::vector<std::uint8_t> protos = make_prototypes(spec.classes, seed);
        out.pool = noisy_samples(protos, spec.classes, spec.pool_size, false,
                                 sub_seed(seed, stream::pool));
        out.fit_stream = noisy_samples(protos, spec.classes, spec.fits, false,
                                       sub_seed(seed, stream::fits));
    } else {
        out.pool = data::make_synthetic_digits(spec.pool_size, sub_seed(seed, stream::pool));
        out.fit_stream = data::make_synthetic_digits(spec.fits, sub_seed(seed, stream::fits));
    }
    out.order.resize(spec.pool_size);
    for (std::size_t i = 0; i < out.order.size(); ++i) {
        out.order[i] = static_cast<std::uint32_t>(i);
    }
    xoshiro256ss rng(sub_seed(seed, stream::order));
    for (std::size_t i = out.order.size(); i > 1; --i) {
        std::swap(out.order[i - 1], out.order[rng.next_below(i)]);
    }
    return out;
}

trained_model train_model(const workload_spec& spec, const server_inputs& inputs,
                          thread_pool& pool, setup_times* times) {
    const std::int64_t t0 = now_ns();
    core::uhd_config config;
    config.dim = spec.dim;
    trained_model out;
    out.model = std::make_unique<core::uhd_model>(
        config, inputs.train.shape(), spec.classes, hdc::train_mode::raw_sums,
        hdc::query_mode::binarized);
    const std::int64_t t1 = now_ns();
    out.model->fit_parallel(inputs.train, &pool);
    if (spec.dynamic_every != 0) {
        out.policy = out.model->calibrate_dynamic(inputs.calibration,
                                                  cascade_agreement, &pool);
    }
    const std::int64_t t2 = now_ns();
    if (times != nullptr) {
        times->encoder_build_s = static_cast<double>(t1 - t0) * 1e-9;
        times->fit_s = static_cast<double>(t2 - t1) * 1e-9;
    }
    return out;
}

serve::engine_options engine_options_for(const workload_spec& spec,
                                         const core::uhd_model& model) {
    serve::engine_options options;
    options.workers = 1;
    options.max_batch = max_batch;
    options.queue_capacity = 4096;
    options.encoder = spec.raw ? &model.encoder() : nullptr;
    return options;
}

std::unique_ptr<serve::inference_engine> start_engine(const workload_spec& spec,
                                                      const trained_model& trained) {
    const serve::engine_options options = engine_options_for(spec, *trained.model);
    if (trained.policy.has_value()) {
        return std::make_unique<serve::inference_engine>(trained.model->snapshot(),
                                                         *trained.policy, options);
    }
    return std::make_unique<serve::inference_engine>(trained.model->snapshot(),
                                                     options);
}

hosted_system::hosted_system(const workload_spec& spec, const server_inputs& inputs,
                             thread_pool& pool)
    : trained_(train_model(spec, inputs, pool, &times_)) {
    const std::int64_t t0 = now_ns();
    engine_ = start_engine(spec, trained_);
    net::wire_server_options options;
    options.reactors = 1;
    options.publish_every = publish_every;
    server_ = std::make_unique<net::wire_server>(*engine_, options,
                                                 trained_.model.get());
    server_->start();
    times_.start_s = static_cast<double>(now_ns() - t0) * 1e-9;
}

hosted_system::~hosted_system() {
    server_->stop();
    engine_->stop();
}

oracle::oracle(const workload_spec& spec, const server_inputs& inputs,
               const client_inputs& client, thread_pool& pool)
    : spec_(spec), initial_(train_model(spec, inputs, pool)) {
    const std::size_t n = client.pool.size();
    encoded_.resize(n * spec.dim);
    initial_.model->encoder().encode_batch(client.pool.images(0, n), n, encoded_,
                                           &pool);

    // Replay the partial_fit stream exactly as wire_server applies it:
    // fit, count, publish on the first fit and every publish_every-th after.
    // Predicts only see the fits that share their drive (online_learn);
    // elsewhere the fit stream is a probe sent after the last predict, so
    // only the versions of its snapshots are kept.
    core::uhd_model replay(*initial_.model);
    published_.push_back({replay.snapshot().version(), replay.snapshot(), {}});
    std::uint64_t version = published_.back().version;
    fit_replies_.reserve(client.fit_stream.size());
    for (std::size_t k = 1; k <= client.fit_stream.size(); ++k) {
        replay.partial_fit(client.fit_stream.image(k - 1),
                           client.fit_stream.label(k - 1));
        if (k % publish_every == 1 || publish_every == 1) {
            hdc::inference_snapshot snap = replay.snapshot();
            version = snap.version();
            if (spec.fit_every != 0) published_.push_back({version, std::move(snap), {}});
        }
        fit_replies_.push_back({k, version});
    }
    for (published& p : published_) label_pool(p);
}

void oracle::label_pool(published& p) const {
    const std::size_t n = encoded_.size() / spec_.dim;
    p.labels.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::span<const std::int32_t> query(encoded_.data() + i * spec_.dim,
                                                  spec_.dim);
        p.labels[i] = static_cast<std::uint32_t>(
            dynamic(i) ? p.snapshot.predict_dynamic_encoded(query, *initial_.policy)
                       : p.snapshot.predict_encoded(query));
    }
}

const oracle::published* oracle::find(std::uint64_t version) const {
    const auto it = std::lower_bound(
        published_.begin(), published_.end(), version,
        [](const published& p, std::uint64_t v) { return p.version < v; });
    return it != published_.end() && it->version == version ? &*it : nullptr;
}

std::optional<std::uint32_t> oracle::label(std::size_t i, std::uint64_t version) const {
    const published* p = find(version);
    if (p == nullptr || i >= p->labels.size()) return std::nullopt;
    return p->labels[i];
}

net::partial_fit_reply oracle::fit_reply(std::size_t k) const {
    UHD_REQUIRE(k >= 1 && k <= fit_replies_.size(), "fit index outside the stream");
    return fit_replies_[k - 1];
}

std::uint64_t oracle::initial_version() const noexcept {
    return published_.front().version;
}

std::uint64_t oracle::serving_version() const noexcept {
    return published_.back().version;
}

bool oracle::dynamic(std::size_t i) const noexcept {
    return spec_.dynamic_every != 0 && i % spec_.dynamic_every == 0;
}

const hdc::inference_snapshot* oracle::snapshot(std::uint64_t version) const {
    const published* p = find(version);
    return p == nullptr ? nullptr : &p->snapshot;
}

} // namespace perfbench

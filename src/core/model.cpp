#include "uhd/core/model.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "uhd/common/error.hpp"
#include "uhd/common/io.hpp"

namespace uhd::core {
namespace {

constexpr std::uint32_t model_magic = 0x6d444875u; // "uHDm" little-endian
// v2 appends the bank-mode word (seed-only serialization: the threshold
// state is always regenerated from sobol_seed, never written to the file,
// so the on-disk format is O(classes * D) in both modes). v1 files — the
// stored-bank era — load as bank_mode::stored.
constexpr std::uint32_t model_version = 2;

// Geometry bounds shared by construction and load: every model the library
// can build passes them (so save/load round-trips by construction), and a
// corrupt stream trips them before any allocation sized from its fields.
void validate_geometry(const uhd_config& config, data::image_shape shape,
                       std::size_t classes) {
    const std::size_t dim = config.dim;
    UHD_REQUIRE(dim >= 1 && dim <= (std::size_t{1} << 30),
                "model dimension out of range");
    UHD_REQUIRE(config.quant_levels >= 2 && config.quant_levels <= 256,
                "model quantization levels out of range");
    // Per-field bounds first: pixels() is a product that could wrap modulo
    // 2^64 for absurd individual fields. 2^20 each keeps it exact.
    for (const std::size_t field : {shape.rows, shape.cols, shape.channels}) {
        UHD_REQUIRE(field >= 1 && field <= (std::size_t{1} << 20),
                    "model image shape out of range");
    }
    const std::size_t pixels = shape.pixels();
    UHD_REQUIRE(pixels <= (std::size_t{1} << 30),
                "model image shape out of range");
    UHD_REQUIRE(classes >= 2 && classes <= (std::size_t{1} << 20),
                "model class count out of range");
    UHD_REQUIRE(pixels <= (std::size_t{1} << 33) / dim,
                "model threshold bank size out of range");
    UHD_REQUIRE(classes <= (std::size_t{1} << 31) / dim,
                "model class-accumulator size out of range");
}

/// fsync `path` (a file, or a directory with O_DIRECTORY in `flags`)
/// through a descriptor of its own.
void sync_path(const std::string& path, int flags) {
    const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
    UHD_REQUIRE(fd >= 0, "cannot open for sync: " + path);
    const bool synced = ::fsync(fd) == 0;
    const bool closed = ::close(fd) == 0;
    UHD_REQUIRE(synced && closed, "cannot sync: " + path);
}

/// A mode word: 1 selects the named alternative, 0 the default. Any other
/// value is a corrupt or future file, which must not load as some other
/// model.
[[nodiscard]] bool read_mode_flag(std::istream& is, const char* field) {
    const std::uint32_t word = io::read_u32(is);
    UHD_REQUIRE(word <= 1u, std::string("model file ") + field + " word is " +
                                std::to_string(word) + " (expected 0 or 1)");
    return word == 1u;
}

} // namespace

uhd_model::uhd_model(const uhd_config& config, data::image_shape shape,
                     std::size_t classes, hdc::train_mode mode,
                     hdc::query_mode inference)
    : encoder_((validate_geometry(config, shape, classes), config), shape),
      classifier_(encoder_, classes, mode, inference) {}

uhd_model::uhd_model(const uhd_model& other)
    : encoder_(other.encoder_), classifier_(other.classifier_) {
    classifier_.rebind_encoder(encoder_);
}

uhd_model::uhd_model(uhd_model&& other) noexcept
    : encoder_(std::move(other.encoder_)),
      classifier_(std::move(other.classifier_)) {
    classifier_.rebind_encoder(encoder_);
}

uhd_model& uhd_model::operator=(const uhd_model& other) {
    if (this != &other) {
        encoder_ = other.encoder_;
        classifier_ = other.classifier_;
        classifier_.rebind_encoder(encoder_);
    }
    return *this;
}

uhd_model& uhd_model::operator=(uhd_model&& other) noexcept {
    if (this != &other) {
        encoder_ = std::move(other.encoder_);
        classifier_ = std::move(other.classifier_);
        classifier_.rebind_encoder(encoder_);
    }
    return *this;
}

uhd_model uhd_model::train(const uhd_config& config, const data::dataset& train_set,
                           hdc::train_mode mode, hdc::query_mode inference) {
    UHD_REQUIRE(!train_set.empty(), "training set is empty");
    uhd_model model(config, train_set.shape(), train_set.num_classes(), mode, inference);
    model.fit(train_set);
    return model;
}

void uhd_model::fit(const data::dataset& train_set) { classifier_.fit(train_set); }

void uhd_model::fit_parallel(const data::dataset& train_set, thread_pool* pool,
                             hdc::trainer_options options) {
    classifier_.fit_parallel(train_set, pool, options);
}

void uhd_model::partial_fit(std::span<const std::uint8_t> image, std::size_t label) {
    classifier_.partial_fit(image, label);
}

std::size_t uhd_model::predict(std::span<const std::uint8_t> image) const {
    return classifier_.predict(image);
}

double uhd_model::evaluate(const data::dataset& test, data::confusion_matrix* matrix,
                           thread_pool* pool) const {
    return classifier_.evaluate(test, matrix, pool);
}

std::vector<std::size_t> uhd_model::predict_batch(const data::dataset& set,
                                                  thread_pool* pool) const {
    return classifier_.predict_batch(set, pool);
}

std::size_t uhd_model::retrain(const data::dataset& train_set, std::size_t epochs) {
    return classifier_.retrain(train_set, epochs);
}

std::size_t uhd_model::retrain(const data::dataset& train_set, std::size_t epochs,
                               thread_pool* pool, std::size_t batch_images) {
    return classifier_.retrain(train_set, epochs, pool, batch_images);
}

std::size_t uhd_model::predict_dynamic(std::span<const std::uint8_t> image,
                                       const hdc::dynamic_query_policy& policy,
                                       hdc::dynamic_query_stats* stats) const {
    return classifier_.predict_dynamic(image, policy, stats);
}

hdc::inference_snapshot uhd_model::snapshot() const { return classifier_.snapshot(); }

hdc::dynamic_query_policy uhd_model::calibrate_dynamic(const data::dataset& holdout,
                                                       double target_agreement,
                                                       thread_pool* pool) const {
    return classifier_.calibrate_dynamic(holdout, target_agreement, pool);
}

void uhd_model::save(std::ostream& os) const {
    io::write_header(os, model_magic, model_version);
    const uhd_config& cfg = encoder_.config();
    io::write_u64(os, cfg.dim);
    io::write_u32(os, cfg.quant_levels);
    io::write_u64(os, cfg.sobol_seed);
    io::write_u64(os, encoder_.shape().rows);
    io::write_u64(os, encoder_.shape().cols);
    io::write_u64(os, encoder_.shape().channels);
    io::write_u64(os, classifier_.classes());
    io::write_u32(os, classifier_.mode() == hdc::train_mode::raw_sums ? 1u : 0u);
    io::write_u32(os, classifier_.inference() == hdc::query_mode::integer ? 1u : 0u);
    io::write_u32(os, cfg.bank == bank_mode::rematerialize ? 1u : 0u);
    for (std::size_t c = 0; c < classifier_.classes(); ++c) {
        io::write_pod_span(os, classifier_.class_accumulator(c).values());
    }
}

void uhd_model::save_file(const std::string& path) const {
    // Write a temp file beside the target, make it durable, then rename it
    // over the target: a save that fails at any point (full disk, file-size
    // limit, crash) leaves the previous file whole. The pid and a
    // per-process count keep concurrent saves off each other's temp file.
    static std::atomic<unsigned> saves{0};
    const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                             std::to_string(saves.fetch_add(1));
    try {
        std::ofstream os(temp, std::ios::binary);
        UHD_REQUIRE(os.good(), "cannot open model file for writing: " + temp);
        save(os);
        // A full disk can fail a buffered write after save() returns; close
        // and re-check so a truncated model is an error, never renamed in.
        os.close();
        UHD_REQUIRE(!os.fail(), "short write while saving model file: " + temp);
        sync_path(temp, O_RDONLY);
        UHD_REQUIRE(std::rename(temp.c_str(), path.c_str()) == 0,
                    "cannot replace model file: " + path);
    } catch (...) {
        ::unlink(temp.c_str());
        throw;
    }
    const std::filesystem::path dir = std::filesystem::path(path).parent_path();
    sync_path(dir.empty() ? "." : dir.string(), O_RDONLY | O_DIRECTORY);
}

uhd_model uhd_model::load(std::istream& is) {
    const std::uint32_t version = io::read_header(is, model_magic, model_version);
    uhd_config cfg;
    cfg.dim = static_cast<std::size_t>(io::read_u64(is));
    cfg.quant_levels = io::read_u32(is);
    cfg.sobol_seed = io::read_u64(is);
    data::image_shape shape;
    shape.rows = static_cast<std::size_t>(io::read_u64(is));
    shape.cols = static_cast<std::size_t>(io::read_u64(is));
    shape.channels = static_cast<std::size_t>(io::read_u64(is));
    const std::size_t classes = static_cast<std::size_t>(io::read_u64(is));
    // Same bounds the constructor enforces: a corrupt stream must fail
    // cleanly here rather than drive a multi-gigabyte bank/accumulator
    // allocation below.
    validate_geometry(cfg, shape, classes);
    const hdc::train_mode mode = read_mode_flag(is, "train_mode")
                                     ? hdc::train_mode::raw_sums
                                     : hdc::train_mode::binarized_images;
    const hdc::query_mode inference = read_mode_flag(is, "query_mode")
                                          ? hdc::query_mode::integer
                                          : hdc::query_mode::binarized;
    if (version >= 2) {
        cfg.bank = read_mode_flag(is, "bank_mode") ? bank_mode::rematerialize
                                                   : bank_mode::stored;
    }
    // Every accumulator is read and checked before the model and its
    // O(pixels * D) encoder are built, each count before its allocation.
    std::vector<hdc::accumulator> accumulators;
    accumulators.reserve(classes);
    for (std::size_t c = 0; c < classes; ++c) {
        const auto values = io::read_pod_vector<std::int32_t>(is, cfg.dim);
        UHD_REQUIRE(values.size() == cfg.dim, "model file accumulator size mismatch");
        hdc::accumulator acc(cfg.dim);
        for (std::size_t d = 0; d < values.size(); ++d) acc.values()[d] = values[d];
        accumulators.push_back(std::move(acc));
    }
    uhd_model model(cfg, shape, classes, mode, inference);
    model.classifier_.load_state(std::move(accumulators));
    return model;
}

uhd_model uhd_model::load_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    UHD_REQUIRE(is.good(), "cannot open model file for reading: " + path);
    return load(is);
}

} // namespace uhd::core

// Tests for the end-to-end uHD model and its serialization.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <utility>

#include "uhd/common/error.hpp"
#include "uhd/core/model.hpp"
#include "uhd/data/synthetic.hpp"

namespace {

using namespace uhd;
using core::uhd_config;
using core::uhd_model;

uhd_config small_config() {
    uhd_config cfg;
    cfg.dim = 256;
    return cfg;
}

TEST(Model, TrainAndEvaluate) {
    const auto train = data::make_synthetic_digits(200, 21);
    const auto test = data::make_synthetic_digits(80, 22);
    const uhd_model model = uhd_model::train(small_config(), train,
                                             hdc::train_mode::raw_sums);
    EXPECT_GT(model.evaluate(test), 0.3);
    EXPECT_EQ(model.classes(), 10u);
}

TEST(Model, TrainRejectsEmptyDataset) {
    data::dataset empty(data::image_shape{28, 28, 1}, 10);
    EXPECT_THROW((void)uhd_model::train(small_config(), empty), uhd::error);
}

TEST(Model, SaveLoadRoundTripPreservesPredictions) {
    const auto train = data::make_synthetic_digits(120, 23);
    const uhd_model model = uhd_model::train(small_config(), train,
                                             hdc::train_mode::raw_sums);
    std::stringstream buffer;
    model.save(buffer);
    const uhd_model loaded = uhd_model::load(buffer);
    for (std::size_t i = 0; i < train.size(); ++i) {
        EXPECT_EQ(loaded.predict(train.image(i)), model.predict(train.image(i)));
    }
    EXPECT_EQ(loaded.classes(), model.classes());
    EXPECT_EQ(loaded.encoder().config().dim, model.encoder().config().dim);
}

TEST(Model, SaveLoadThroughFile) {
    namespace fs = std::filesystem;
    const auto train = data::make_synthetic_digits(60, 24);
    const uhd_model model = uhd_model::train(small_config(), train);
    const fs::path path = fs::temp_directory_path() / "uhd_model_test.bin";
    model.save_file(path.string());
    const uhd_model loaded = uhd_model::load_file(path.string());
    EXPECT_EQ(loaded.predict(train.image(0)), model.predict(train.image(0)));
    fs::remove(path);
    EXPECT_THROW((void)uhd_model::load_file(path.string()), uhd::error);
}

TEST(Model, LoadRejectsCorruptStream) {
    std::stringstream garbage("not a model file at all");
    EXPECT_THROW((void)uhd_model::load(garbage), uhd::error);
}

TEST(Model, LoadRejectsTruncatedFile) {
    // A partially written model (full disk, killed process) must fail
    // cleanly at every truncation point, never load garbage or OOM.
    const auto train = data::make_synthetic_digits(40, 30);
    const uhd_model model = uhd_model::train(small_config(), train);
    std::stringstream buffer;
    model.save(buffer);
    const std::string full = buffer.str();
    ASSERT_GT(full.size(), 64u);
    for (const double fraction : {0.1, 0.35, 0.6, 0.9, 0.999}) {
        const auto cut = static_cast<std::size_t>(
            static_cast<double>(full.size()) * fraction);
        std::stringstream truncated(full.substr(0, cut));
        EXPECT_THROW((void)uhd_model::load(truncated), uhd::error)
            << "truncated at " << cut << "/" << full.size();
    }
}

TEST(Model, LoadRejectsImplausibleHeaderFields) {
    // Corrupt-but-complete headers (absurd dim / class count) must be
    // rejected before any allocation sized from them.
    const auto train = data::make_synthetic_digits(40, 34);
    const uhd_model model = uhd_model::train(small_config(), train);
    std::stringstream buffer;
    model.save(buffer);
    std::string bytes = buffer.str();
    // Offset 8 is cfg.dim (after the 8-byte magic+version header); stamp an
    // absurd value over it.
    for (std::size_t i = 0; i < 8; ++i) bytes[8 + i] = static_cast<char>(0xFF);
    std::stringstream corrupt(bytes);
    EXPECT_THROW((void)uhd_model::load(corrupt), uhd::error);

    // The three v2 mode words (train, query, bank) at offsets 60/64/68
    // accept only 0 and 1: a 2 is a corrupt or future file, not the default.
    const std::string saved = buffer.str();
    for (const auto& [offset, field] :
         {std::pair<std::size_t, std::string>{60, "train_mode"},
          {64, "query_mode"},
          {68, "bank_mode"}}) {
        std::string stamped = saved;
        const char two[4] = {2, 0, 0, 0}; // little-endian u32
        stamped.replace(offset, 4, two, 4);
        std::stringstream stream(stamped);
        try {
            (void)uhd_model::load(stream);
            ADD_FAILURE() << field << " word 2 loaded silently";
        } catch (const uhd::error& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    }
}

TEST(Model, SaveFileReportsWriteFailure) {
    // /dev/full accepts the open but fails every flush with ENOSPC — the
    // exact silent-truncation case save_file must surface.
    if (!std::filesystem::exists("/dev/full")) {
        GTEST_SKIP() << "/dev/full not available";
    }
    const auto train = data::make_synthetic_digits(40, 35);
    const uhd_model model = uhd_model::train(small_config(), train);
    EXPECT_THROW(model.save_file("/dev/full"), uhd::error);
}

TEST(Model, PartialFitMatchesBatchFitForRawSums) {
    const auto train = data::make_synthetic_digits(60, 25);
    uhd_model batch(small_config(), train.shape(), 10, hdc::train_mode::raw_sums);
    batch.fit(train);
    uhd_model online(small_config(), train.shape(), 10, hdc::train_mode::raw_sums);
    for (std::size_t i = 0; i < train.size(); ++i) {
        online.partial_fit(train.image(i), train.label(i));
    }
    for (std::size_t i = 0; i < 20; ++i) {
        EXPECT_EQ(online.predict(train.image(i)), batch.predict(train.image(i)));
    }
}

TEST(Model, RetrainRuns) {
    const auto train = data::make_synthetic_digits(100, 26);
    uhd_model model(small_config(), train.shape(), 10, hdc::train_mode::raw_sums);
    model.fit(train);
    const std::size_t updates = model.retrain(train, 2);
    EXPECT_LE(updates, train.size());
}

TEST(Model, ClassHypervectorAccessible) {
    const auto train = data::make_synthetic_digits(60, 27);
    const uhd_model model = uhd_model::train(small_config(), train);
    EXPECT_EQ(model.class_hypervector(0).dim(), 256u);
    EXPECT_GT(model.memory_bytes(), 0u);
}

TEST(Model, DeterministicTraining) {
    const auto train = data::make_synthetic_digits(80, 28);
    const auto test = data::make_synthetic_digits(40, 29);
    const uhd_model a = uhd_model::train(small_config(), train);
    const uhd_model b = uhd_model::train(small_config(), train);
    EXPECT_DOUBLE_EQ(a.evaluate(test), b.evaluate(test));
}

} // namespace

// Tests for the end-to-end uHD model and its serialization.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "uhd/common/error.hpp"
#include "uhd/common/io.hpp"
#include "uhd/common/rng.hpp"
#include "uhd/common/thread_pool.hpp"
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

    // The five mode words (train, query, bank, scramble, policy) at offsets
    // 60-76 accept only 0 and 1: a 2 is a corrupt or future file, not the
    // default.
    const std::string saved = buffer.str();
    for (const auto& [offset, field] :
         {std::pair<std::size_t, std::string>{60, "train_mode"},
          {64, "query_mode"},
          {68, "bank_mode"},
          {72, "scramble"},
          {76, "binarize_policy"}}) {
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

    // quant_levels (offset 16) sizes the encoder's quantization tables, and
    // the first accumulator's element count (offset 80) sizes a vector.
    // Both must be range-checked before anything is allocated from them:
    // an absurd value is a uhd::error, never bad_alloc or length_error.
    const auto stamp = [&](std::size_t offset, auto value, std::uint32_t bank) {
        std::string stamped = saved;
        stamped.replace(offset, sizeof value, reinterpret_cast<const char*>(&value),
                        sizeof value);
        stamped.replace(68, sizeof bank, reinterpret_cast<const char*>(&bank),
                        sizeof bank);
        return stamped;
    };
    for (const std::uint32_t bank : {0u, 1u}) { // stored, rematerialize
        for (const std::uint32_t levels : {0u, 1u, 257u, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
            std::stringstream stream(stamp(16, levels, bank));
            EXPECT_THROW((void)uhd_model::load(stream), uhd::error)
                << "quant_levels " << levels << ", bank word " << bank;
        }
        for (const std::uint64_t count :
             {std::uint64_t{0}, std::uint64_t{255}, std::uint64_t{1} << 28,
              std::uint64_t{1} << 36, std::uint64_t{1} << 62}) {
            std::stringstream stream(stamp(80, count, bank));
            EXPECT_THROW((void)uhd_model::load(stream), uhd::error)
                << "accumulator count " << count << ", bank word " << bank;
        }
    }
}

/// Lowers this process's soft RLIMIT_FSIZE and ignores SIGXFSZ for the
/// guard's lifetime, so a write past the limit fails with EFBIG instead of
/// killing the process.
class file_size_limit_guard {
public:
    explicit file_size_limit_guard(rlim_t soft) {
        if (::getrlimit(RLIMIT_FSIZE, &saved_) != 0) throw uhd::error("getrlimit");
        saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
        rlimit lowered = saved_;
        lowered.rlim_cur = soft;
        if (::setrlimit(RLIMIT_FSIZE, &lowered) != 0) {
            std::signal(SIGXFSZ, saved_handler_);
            throw uhd::error("setrlimit");
        }
    }
    ~file_size_limit_guard() {
        ::setrlimit(RLIMIT_FSIZE, &saved_);
        std::signal(SIGXFSZ, saved_handler_);
    }
    file_size_limit_guard(const file_size_limit_guard&) = delete;
    file_size_limit_guard& operator=(const file_size_limit_guard&) = delete;

private:
    rlimit saved_{};
    void (*saved_handler_)(int) = SIG_DFL;
};

TEST(Model, FailedSaveFileKeepsThePreviousModel) {
    // A save that dies mid-write (full disk, file-size limit, crash) must
    // leave the file it was replacing intact and loadable, and must not
    // leave its partial output behind.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("uhd_model_save_test." + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directory(dir);
    const fs::path path = dir / "model.bin";

    const auto train = data::make_synthetic_digits(60, 35);
    const uhd_model saved = uhd_model::train(small_config(), train);
    saved.save_file(path.string());
    const auto saved_size = fs::file_size(path);
    ASSERT_GT(saved_size, 4096u);

    uhd_config other = small_config();
    other.sobol_seed = 99;
    const uhd_model replacement =
        uhd_model::train(other, data::make_synthetic_digits(60, 36));
    {
        const file_size_limit_guard limit(4096);
        EXPECT_THROW(replacement.save_file(path.string()), uhd::error);
    }

    EXPECT_EQ(fs::file_size(path), saved_size);
    const uhd_model loaded = uhd_model::load_file(path.string());
    for (std::size_t i = 0; i < train.size(); ++i) {
        EXPECT_EQ(loaded.predict(train.image(i)), saved.predict(train.image(i)));
    }
    std::size_t entries = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        ++entries;
        EXPECT_EQ(entry.path().filename(), "model.bin") << "left behind: " << entry.path();
    }
    EXPECT_EQ(entries, 1u);

    // With the limit gone the same save replaces the file.
    replacement.save_file(path.string());
    const uhd_model reloaded = uhd_model::load_file(path.string());
    EXPECT_EQ(reloaded.encoder().config().sobol_seed, 99u);
    fs::remove_all(dir);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define UHD_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define UHD_TEST_SANITIZED 1
#endif
#endif

/// Lowers this process's soft RLIMIT_AS to `headroom` bytes above the
/// address space it maps now, for the guard's lifetime: an allocation past
/// that fails with std::bad_alloc instead of committing memory.
class address_space_limit_guard {
public:
    explicit address_space_limit_guard(rlim_t headroom) {
        if (::getrlimit(RLIMIT_AS, &saved_) != 0) throw uhd::error("getrlimit");
        std::ifstream statm("/proc/self/statm");
        std::uint64_t mapped_pages = 0;
        if (!(statm >> mapped_pages)) throw uhd::error("cannot read /proc/self/statm");
        const auto mapped = static_cast<rlim_t>(mapped_pages) *
                            static_cast<rlim_t>(::sysconf(_SC_PAGESIZE));
        rlimit lowered = saved_;
        lowered.rlim_cur = std::min(saved_.rlim_cur, mapped + headroom);
        if (::setrlimit(RLIMIT_AS, &lowered) != 0) throw uhd::error("setrlimit");
    }
    ~address_space_limit_guard() { ::setrlimit(RLIMIT_AS, &saved_); }
    address_space_limit_guard(const address_space_limit_guard&) = delete;
    address_space_limit_guard& operator=(const address_space_limit_guard&) = delete;

private:
    rlimit saved_{};
};

TEST(Model, TruncatedFileClaimingAHugeAccumulatorFailsWithoutAllocatingIt) {
#ifdef UHD_TEST_SANITIZED
    GTEST_SKIP() << "sanitizer shadow memory does not fit under an address-space limit";
#endif
    // A 2x2-image, 2-class model at D = 2^30 passes the geometry checks, so
    // its header may claim a 4 GiB accumulator. This file holds 16 bytes of
    // it. load must throw uhd::error after allocating about what the stream
    // held, never the claimed 4 GiB; under 1 GiB of address-space headroom
    // that allocation would be std::bad_alloc.
    const uhd_model small(small_config(), data::image_shape{2, 2, 1}, 2);
    std::stringstream buffer;
    small.save(buffer);
    std::string bytes = buffer.str();
    const std::uint64_t dim = std::uint64_t{1} << 30;
    bytes.replace(8, sizeof dim, reinterpret_cast<const char*>(&dim), sizeof dim);
    bytes.replace(80, sizeof dim, reinterpret_cast<const char*>(&dim), sizeof dim);
    bytes.resize(80 + sizeof dim + 16);
    std::stringstream truncated(bytes);
    const address_space_limit_guard limit(rlim_t{1} << 30);
    EXPECT_THROW((void)uhd_model::load(truncated), uhd::error);
}

/// Save `model` to a string.
std::string saved_bytes(const uhd_model& model) {
    std::stringstream buffer;
    model.save(buffer);
    return buffer.str();
}

/// Load `bytes`: a uhd::error is a clean rejection; a model must save and
/// reload to the same bytes. Any other exception fails the test.
/// Returns the loaded model's bytes, if it loaded.
std::optional<std::string> load_or_reject(const std::string& bytes, const std::string& what) {
    std::stringstream stream(bytes);
    std::optional<uhd_model> model;
    try {
        model.emplace(uhd_model::load(stream));
    } catch (const uhd::error&) {
        return std::nullopt;
    }
    const std::string once = saved_bytes(*model);
    std::stringstream again(once);
    EXPECT_EQ(saved_bytes(uhd_model::load(again)), once) << what;
    return once;
}

TEST(Model, LoadSurvivesADeterministicMutationFuzz) {
    // Small models in both train modes and both bank modes, mutated from a
    // fixed seed: single-byte flips across the 80-byte header and the first
    // accumulator (its count and D = 64 values), three random masks per
    // byte, truncation at every length through the header and at 32 random
    // longer lengths, and 1-64 appended random bytes.
    //
    // Random masks reach bytes 1 and 2 of the rows and cols fields too. A
    // flip there can name a valid geometry of up to about 8 million pixels,
    // whose encoder takes seconds and hundreds of MiB to build; load
    // rejects it at the CRC32C trailer, before building anything.
    const data::image_shape shape{8, 8, 1};
    data::dataset train(shape, 3);
    xoshiro256ss rng(20261019);
    std::vector<std::uint8_t> image(shape.pixels());
    for (std::size_t i = 0; i < 12; ++i) {
        for (std::uint8_t& v : image) v = static_cast<std::uint8_t>(rng.next_below(256));
        train.add(image, i % 3);
    }
    constexpr std::size_t header_bytes = 80;
    for (const auto mode : {hdc::train_mode::raw_sums, hdc::train_mode::binarized_images}) {
        for (const auto bank : {bank_mode::stored, bank_mode::rematerialize}) {
            uhd_config cfg;
            cfg.dim = 64;
            cfg.bank = bank;
            uhd_model model(cfg, shape, 3, mode, hdc::query_mode::binarized);
            model.fit(train);
            const std::string original = saved_bytes(model);
            const std::size_t first_accumulator_end = header_bytes + 8 + 64 * 4;
            ASSERT_GT(original.size(), first_accumulator_end);
            const std::string where = std::string(mode == hdc::train_mode::raw_sums
                                                      ? "raw_sums"
                                                      : "binarized_images") +
                                      (bank == bank_mode::stored ? ", stored" : ", remat");
            for (std::size_t at = 0; at < first_accumulator_end; ++at) {
                for (int flip = 0; flip < 3; ++flip) {
                    const auto mask = static_cast<unsigned>(1 + rng.next_below(255));
                    std::string bytes = original;
                    bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^ mask);
                    (void)load_or_reject(bytes, where + ", byte " + std::to_string(at) +
                                                    " ^ " + std::to_string(mask));
                }
            }
            std::vector<std::size_t> cuts;
            for (std::size_t cut = 0; cut <= header_bytes; ++cut) cuts.push_back(cut);
            for (int i = 0; i < 32; ++i) {
                const std::size_t longer = original.size() - header_bytes - 1;
                cuts.push_back(header_bytes + 1 + rng.next_below(longer));
            }
            for (const std::size_t cut : cuts) {
                EXPECT_FALSE(load_or_reject(original.substr(0, cut),
                                            where + ", cut at " + std::to_string(cut)))
                    << where << ": a file cut at " << cut << " loaded";
            }
            for (const std::size_t extra : {1u, 7u, 64u}) {
                std::string bytes = original;
                for (std::size_t i = 0; i < extra; ++i) {
                    bytes.push_back(static_cast<char>(rng.next_below(256)));
                }
                EXPECT_EQ(load_or_reject(bytes, where + ", appended " + std::to_string(extra)),
                          original);
            }
        }
    }
}

TEST(Model, EverySingleByteFlipOfAV4FileIsRejected) {
    // A v4 file ends in a CRC32C of every byte before it, and a CRC32C
    // catches any change confined to 32 consecutive bits, so no flip of one
    // byte loads a model. Every offset is flipped: with all 255 masks in
    // the header, whose fields load parses before it reaches the trailer,
    // and in the trailer; with the 8 one-bit masks and 0xFF in the
    // accumulator rows (a rejected load costs about 12 us here).
    //
    // That includes the version word. A flip that names v1, v2 or v3 parses
    // without the scramble and policy words, so it reads them as the first
    // accumulator's count (2^32 for v1, 1 for v2 and v3) and rejects the
    // file; version 0 parses as v1.
    const data::image_shape shape{2, 2, 1};
    data::dataset train(shape, 2);
    xoshiro256ss rng(20261020);
    std::vector<std::uint8_t> image(shape.pixels());
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::uint8_t& v : image) v = static_cast<std::uint8_t>(rng.next_below(256));
        train.add(image, i % 2);
    }
    uhd_config cfg;
    cfg.dim = 64;
    uhd_model model(cfg, shape, 2);
    model.fit(train);
    const std::string original = saved_bytes(model);
    constexpr std::size_t header_bytes = 80;
    EXPECT_EQ(original.size(), header_bytes + 2 * (8 + 64 * 4) + 4); // rows, trailer

    const std::vector<unsigned> row_masks = {0x01, 0x02, 0x04, 0x08, 0x10,
                                             0x20, 0x40, 0x80, 0xFF};
    std::vector<unsigned> all_masks;
    for (unsigned mask = 1; mask < 256; ++mask) all_masks.push_back(mask);
    std::stringstream stream;
    for (std::size_t at = 0; at < original.size(); ++at) {
        const bool row = at >= header_bytes && at + 4 < original.size();
        for (const unsigned mask : row ? row_masks : all_masks) {
            std::string bytes = original;
            bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^ mask);
            stream.clear();
            stream.str(bytes);
            try {
                (void)uhd_model::load(stream);
            } catch (const uhd::error&) {
                continue;
            }
            // Stop at the first: without the trailer, a flip in rows or
            // cols can go on to build encoders of millions of pixels.
            FAIL() << "byte " << at << " ^ " << mask << " loaded a model";
        }
    }
}

TEST(Model, V1ToV3FilesLoadToTheSameModel) {
    // v3 is v4 without the scramble and policy words at offsets 72-79, its
    // trailer the CRC32C of what remains; v2 is v3 without the trailer, and
    // v1 (the stored-bank era) is v2 without the bank word at offset 68.
    // Each loads as the default-encoder model that saves back to the v4
    // bytes.
    const auto train = data::make_synthetic_digits(60, 37);
    const uhd_model model = uhd_model::train(small_config(), train);
    const std::string v4 = saved_bytes(model);
    std::string v3 = v4.substr(0, v4.size() - 4);
    v3[4] = 3;
    v3.erase(72, 8);
    const std::uint32_t crc = io::crc32c(0, v3.data(), v3.size());
    v3.append(reinterpret_cast<const char*>(&crc), sizeof crc); // little-endian host
    std::string v2 = v3.substr(0, v3.size() - 4);
    v2[4] = 2;
    std::string v1 = v2;
    v1[4] = 1;
    v1.erase(68, 4);
    for (const auto& [bytes, version] :
         {std::pair{v1, "v1"}, std::pair{v2, "v2"}, std::pair{v3, "v3"}}) {
        std::stringstream stream(bytes);
        EXPECT_EQ(saved_bytes(uhd_model::load(stream)), v4) << version;
    }
}

TEST(Model, SaveLoadKeepsScrambleAndPolicy) {
    // The encoder settings a model file stores since v4: a model trained
    // with scramble off, or under half_inputs, must load with them, or its
    // class vectors meet queries encoded against other thresholds.
    const auto train = data::make_synthetic_digits(300, 44);
    const auto test = data::make_synthetic_digits(200, 45);
    for (const auto& [scramble, policy] :
         {std::pair{false, core::binarize_policy::mean_intensity},
          std::pair{true, core::binarize_policy::half_inputs},
          std::pair{false, core::binarize_policy::half_inputs}}) {
        uhd_config cfg = small_config();
        cfg.scramble = scramble;
        cfg.policy = policy;
        const uhd_model model = uhd_model::train(cfg, train, hdc::train_mode::binarized_images,
                                                 hdc::query_mode::binarized);
        std::stringstream buffer;
        model.save(buffer);
        const uhd_model loaded = uhd_model::load(buffer);
        const uhd_config& got = loaded.encoder().config();
        EXPECT_EQ(got.scramble, scramble);
        EXPECT_EQ(got.policy, policy);
        EXPECT_EQ(got.dim, cfg.dim);
        EXPECT_EQ(got.quant_levels, cfg.quant_levels);
        EXPECT_EQ(got.sobol_seed, cfg.sobol_seed);
        EXPECT_EQ(got.bank, cfg.bank);
        std::size_t differ = 0;
        for (std::size_t i = 0; i < test.size(); ++i) {
            differ += loaded.predict(test.image(i)) != model.predict(test.image(i)) ? 1 : 0;
        }
        EXPECT_EQ(differ, 0u) << "scramble=" << scramble << " half_inputs="
                              << (policy == core::binarize_policy::half_inputs);
    }
}

TEST(Model, SavedAfterFitParallelIsByteIdenticalToFit) {
    // 1,000 digits over 10 classes take fit_parallel's histogram path
    // (hdc/trainer.hpp): the saved model must be fit()'s, byte for byte.
    const auto train = data::make_synthetic_digits(1000, 36);
    thread_pool pool(2);
    for (const auto bank : {bank_mode::stored, bank_mode::rematerialize}) {
        uhd_config cfg;
        cfg.dim = bank == bank_mode::stored ? 1024 : 256;
        cfg.bank = bank;
        uhd_model sequential(cfg, train.shape(), 10);
        sequential.fit(train);
        uhd_model parallel(cfg, train.shape(), 10);
        parallel.fit_parallel(train, &pool);
        EXPECT_EQ(saved_bytes(sequential), saved_bytes(parallel))
            << (bank == bank_mode::stored ? "stored" : "rematerialize");
    }
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
    const std::size_t updates = model.retrain(train, 2, nullptr);
    EXPECT_LE(updates, train.size());
}

TEST(Model, PackedClassMemoryAccessible) {
    const auto train = data::make_synthetic_digits(60, 27);
    const uhd_model model = uhd_model::train(small_config(), train);
    EXPECT_EQ(model.packed_class_memory().dim(), 256u);
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

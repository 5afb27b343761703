// The one timing harness: encode, train and inference throughput, and the
// per-backend kernels under them. Every timed row is the median of a fixed
// sample count with its quartiles (bench::time_median). Writes three
// machine-readable files (schemas in bench/README.md) and exits nonzero
// when a correctness gate fails or a file cannot be written:
//  * encode on 28x28 synthetic MNIST-shaped images at D=1024 (scalar vs
//    word-parallel vs batched vs packed vs packed with no level-0 pixel vs
//    pool-parallel vs rematerializing, each with its level-0 pixel share),
//    a stored-vs-rematerialize footprint + throughput D-sweep past LLC with
//    bit-identity and >= 100x threshold-state reduction as hard gates, and
//    the bit-plane count and its int32 finisher on every admissible backend
//    -> BENCH_encode.json (override the path with UHD_BENCH_JSON, workload
//    with UHD_BENCH_IMAGES);
//  * training on the same MNIST-shaped workload (seed sequential loop vs
//    the current sequential fit vs the mini-batch parallel engine at
//    several pool sizes, plus 3-thread fits of perfbench's training sets,
//    determinism-gated for every set and D) -> BENCH_train.json (override
//    with UHD_BENCH_TRAIN_JSON, workload with UHD_BENCH_TRAIN_IMAGES);
//  * inference over pre-encoded queries at D=8192 / 10 classes (seed
//    per-class-cosine path vs the packed associative-memory engine, both
//    query modes, plus the calibrated dynamic-dimension cascade with its
//    agreement/scan gates, plus the multi-query blocked path over a
//    4096-class memory at block sizes 1/4/8/16/32, identity-checked and
//    speedup-gated), and sign-binarize and the associative search on every
//    admissible backend -> BENCH_inference.json (override with
//    UHD_BENCH_INFER_JSON, workload with UHD_BENCH_QUERIES).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "uhd/common/config.hpp"
#include "uhd/common/cpu_features.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/rng.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/class_memory.hpp"
#include "uhd/hdc/classifier.hpp"
#include "uhd/hdc/hypervector.hpp"
#include "uhd/hdc/similarity.hpp"
#include "uhd/lowdisc/sobol.hpp"

namespace {

using namespace uhd;

// --- JSON output ----------------------------------------------------------

/// Write one BENCH_*.json through `body`. A failed open, write or close
/// fails the run: returns false after naming the file.
template <typename Fn>
[[nodiscard]] bool write_json_file(const std::string& path, const Fn& body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr;
    if (ok) {
        body(f);
        ok = std::ferror(f) == 0;
        ok = std::fclose(f) == 0 && ok;
    }
    if (!ok) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("# wrote %s\n", path.c_str());
    return true;
}

/// Shared "backend" block of every BENCH_*.json: which kernel backend the
/// run selected, the UHD_BACKEND override in effect (null when unset), the
/// probed CPU feature set, and the backends compiled into the binary — so
/// the perf trajectory stays attributable across machines and overrides.
void write_backend_json(std::FILE* f) {
    std::fprintf(f, "  \"backend\": {\"selected\": \"%s\", \"override\": ",
                 kernels::active().name);
    const std::string_view override_value = kernels::backend_override();
    if (override_value.empty()) {
        std::fprintf(f, "null");
    } else {
        std::fprintf(f, "\"%.*s\"", static_cast<int>(override_value.size()),
                     override_value.data());
    }
    std::fprintf(f, ", \"cpu\": \"%s\", \"compiled\": [",
                 cpu().to_string().c_str());
    const auto compiled = kernels::compiled_backends();
    for (std::size_t i = 0; i < compiled.size(); ++i) {
        std::fprintf(f, "\"%s\"%s", compiled[i]->name,
                     i + 1 < compiled.size() ? ", " : "");
    }
    std::fprintf(f, "]},\n");
}

/// A timed row's `key`: its sample count, quartiles and median in seconds.
void write_timing(std::FILE* f, const char* key, const bench::timing& t) {
    std::fprintf(f,
                 "\"%s\": {\"samples\": %zu, \"q1\": %.6g, \"median\": %.6g, "
                 "\"q3\": %.6g}",
                 key, bench::timing_samples, t.q1, t.median, t.q3);
}

// --- per-backend kernels ----------------------------------------------------
//
// Each admissible backend's table is called directly, so the per-ISA cost
// of the encode, binarize and search layers is visible in one run whatever
// backend the process selected.

/// One timed call shape of a kernel: `dim` dimensions and, for a kernel
/// whose series names one, a second size (listed pixels, prefix words).
struct kernel_point {
    std::size_t dim;
    std::size_t param;
    bench::timing seconds; ///< per call
};

struct kernel_series {
    const char* kernel;
    const char* param_name; ///< nullptr: the kernel takes dim only
    std::vector<kernel_point> points;
};

/// One backend's kernel timings.
struct kernel_row {
    const char* backend;
    std::vector<kernel_series> series;
};

void print_kernel_rows(const std::vector<kernel_row>& rows) {
    for (const kernel_row& row : rows) {
        for (const kernel_series& s : row.series) {
            for (const kernel_point& p : s.points) {
                std::string shape = "D=" + std::to_string(p.dim);
                if (s.param_name != nullptr) {
                    shape += std::string(" ") + s.param_name + "=" + std::to_string(p.param);
                }
                std::printf("%-7s %-29s %-24s %10.3f us  (q1 %.3f, q3 %.3f)\n",
                            row.backend, s.kernel, shape.c_str(), p.seconds.median * 1e6,
                            p.seconds.q1 * 1e6, p.seconds.q3 * 1e6);
            }
        }
    }
}

void write_kernels_json(std::FILE* f, const std::vector<kernel_row>& rows) {
    std::fprintf(f, "  \"kernels\": [\n");
    for (std::size_t r = 0; r < rows.size(); ++r) {
        std::fprintf(f, "    {\"backend\": \"%s\"", rows[r].backend);
        for (const kernel_series& s : rows[r].series) {
            std::fprintf(f, ",\n     \"%s\": [", s.kernel);
            for (std::size_t i = 0; i < s.points.size(); ++i) {
                const kernel_point& p = s.points[i];
                std::fprintf(f, "\n       {\"dim\": %zu, ", p.dim);
                if (s.param_name != nullptr) {
                    std::fprintf(f, "\"%s\": %zu, ", s.param_name, p.param);
                }
                write_timing(f, "seconds", p.seconds);
                std::fprintf(f, "}%s", i + 1 < s.points.size() ? "," : "]");
            }
        }
        std::fprintf(f, "}%s\n", r + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
}

/// The stored-bank encode count: a 784-pixel bank of `dim` thresholds as
/// M = 4 bit planes (xi = 16), `listed` of its pixels (spread evenly,
/// ascending) counted on a base into bit-sliced counters. 784 listed is
/// the dense count every image paid before the level-0 skip; 349 is the
/// median active count of the synthetic digits.
bench::timing time_plane_count(const kernels::kernel_table& table, std::size_t dim,
                               std::size_t listed) {
    const std::size_t pixels = 784;
    const std::size_t m = 4;
    const std::size_t words = kernels::sign_words(dim);
    const std::size_t n_planes = kernels::count_planes(pixels);
    std::vector<std::uint64_t> planes(pixels * m * words);
    xoshiro256ss rng(9);
    for (auto& w : planes) w = rng.next();
    std::vector<kernels::active_pixel> active(listed);
    for (std::size_t i = 0; i < listed; ++i) {
        active[i] = {static_cast<std::uint32_t>(i * pixels / listed),
                     static_cast<std::uint32_t>(i % 15)};
    }
    // A base well inside the contract (base + listed <= pixels).
    std::vector<std::uint64_t> base(n_planes * words, 0);
    for (std::size_t w = 0; w < words; ++w) base[w] = rng.next();
    std::vector<std::uint64_t> counters(n_planes * words);
    return bench::time_median([&] {
        table.geq_plane_count(active.data(), listed, pixels, planes.data(), m, words,
                              base.data(), counters.data());
    });
}

/// The stored bank's producer: one call builds one pixel (the middle one)
/// of a 784-pixel bank at xi = 16, from a standard Sobol direction row and
/// a nonzero digital shift. The encoder makes one such call per pixel.
bench::timing time_sobol_plane_row(const kernels::kernel_table& table, std::size_t dim) {
    const std::size_t pixels = 784;
    const unsigned levels = 16;
    const std::size_t words = kernels::sign_words(dim);
    const ld::sobol_directions directions = ld::sobol_directions::standard(pixels);
    const std::size_t pixel = pixels / 2;
    std::vector<std::uint64_t> planes(pixels * 4 * words);
    std::vector<std::uint32_t> level_counts(levels);
    std::vector<std::uint64_t> zero_words(words);
    return bench::time_median([&] {
        table.sobol_plane_row(directions.direction_numbers(pixel).data(), 0x9e3779b9u,
                              levels, dim, pixels, pixel, planes.data(),
                              level_counts.data(), zero_words.data());
    });
}

/// The int32 finisher over a 784-pixel count (10 counter planes).
bench::timing time_plane_count_center(const kernels::kernel_table& table,
                                      std::size_t dim) {
    const std::size_t words = kernels::sign_words(dim);
    const std::size_t n_planes = kernels::count_planes(784);
    std::vector<std::uint64_t> counters(n_planes * words);
    xoshiro256ss rng(10);
    for (auto& w : counters) w = rng.next();
    std::vector<std::int32_t> out(dim);
    return bench::time_median([&] {
        table.plane_count_center(counters.data(), n_planes, words, dim, 784, out.data());
    });
}

bench::timing time_sign_binarize(const kernels::kernel_table& table, std::size_t dim) {
    xoshiro256ss rng(4);
    std::vector<std::int32_t> values(dim);
    for (auto& v : values) v = static_cast<std::int32_t>(rng.next() % 2001) - 1000;
    std::vector<std::uint64_t> words(kernels::sign_words(dim));
    return bench::time_median(
        [&] { table.sign_binarize(values.data(), dim, words.data()); });
}

/// Classes of the one-query search: the digits memory.
constexpr std::size_t search_classes = 10;

/// One-query associative search over the first `prefix_words` words of
/// every row of a random packed memory: the full row is
/// class_memory::nearest, D/8 the first window of the dynamic cascade.
bench::timing time_search(const kernels::kernel_table& table, std::size_t dim,
                          std::size_t prefix_words) {
    const std::size_t words = kernels::sign_words(dim);
    std::vector<std::uint64_t> memory(search_classes * words);
    std::vector<std::uint64_t> query(words);
    xoshiro256ss rng(5);
    for (auto& w : memory) w = rng.next();
    for (auto& w : query) w = rng.next();
    kernels::argmin2_result r{};
    return bench::time_median([&] {
        table.hamming_block_argmin2_prefix(query.data(), words, 1, memory.data(), words,
                                           0, prefix_words, search_classes, nullptr, &r);
    });
}

[[nodiscard]] std::vector<kernel_row> time_encode_kernels() {
    std::vector<kernel_row> rows;
    for (const kernels::kernel_table* table : kernels::admissible_backends()) {
        kernel_series build{"sobol_plane_row", nullptr, {}};
        kernel_series count{"geq_plane_count", "listed", {}};
        kernel_series center{"plane_count_center", nullptr, {}};
        for (const std::size_t dim : {1024u, 8192u}) {
            build.points.push_back({dim, 0, time_sobol_plane_row(*table, dim)});
            for (const std::size_t listed : {784u, 349u}) {
                count.points.push_back(
                    {dim, listed, time_plane_count(*table, dim, listed)});
            }
            center.points.push_back({dim, 0, time_plane_count_center(*table, dim)});
        }
        rows.push_back({table->name, {build, count, center}});
    }
    return rows;
}

[[nodiscard]] std::vector<kernel_row> time_inference_kernels() {
    std::vector<kernel_row> rows;
    for (const kernels::kernel_table* table : kernels::admissible_backends()) {
        kernel_series binarize{"sign_binarize", nullptr, {}};
        kernel_series search{"hamming_block_argmin2_prefix", "prefix_words", {}};
        for (const std::size_t dim : {1024u, 8192u}) {
            binarize.points.push_back({dim, 0, time_sign_binarize(*table, dim)});
            const std::size_t words = kernels::sign_words(dim);
            for (const std::size_t prefix : {words, words / 8}) {
                search.points.push_back({dim, prefix, time_search(*table, dim, prefix)});
            }
        }
        rows.push_back({table->name, {binarize, search}});
    }
    return rows;
}

// --- encode throughput + BENCH_encode.json ----------------------------------

struct throughput_entry {
    std::string name;
    std::size_t threads;
    bench::timing seconds; ///< per pass over the workload's images
    double images_per_s;
    double gb_per_s;
    double speedup_vs_scalar;
    double level0_share; ///< share of the entry's pixels at quantized level 0
};

/// Median seconds to encode the first `n` images of `ds` one at a time
/// through the word-parallel single-image path.
bench::timing time_encode(const core::uhd_encoder& enc, const data::dataset& ds,
                          std::size_t n) {
    std::vector<std::int32_t> acc(enc.dim());
    return bench::time_median([&] {
        for (std::size_t i = 0; i < n; ++i) enc.encode(ds.image(i), acc);
    });
}

/// Share of the pixels of the first `n` images that quantize to level 0 —
/// the pixels the stored encode skips.
double level0_share(const core::uhd_encoder& enc, const data::dataset& ds,
                    std::size_t n) {
    std::size_t zeros = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (const std::uint8_t x : ds.image(i)) zeros += enc.quantize_intensity(x) == 0;
    }
    return static_cast<double>(zeros) / static_cast<double>(n * ds.shape().pixels());
}

/// `ds` with every level-0 pixel raised to the lowest intensity that
/// quantizes to level 1: the same images with nothing to skip.
data::dataset without_level0(const core::uhd_encoder& enc, const data::dataset& ds) {
    unsigned level1 = 0;
    while (enc.quantize_intensity(static_cast<std::uint8_t>(level1)) == 0) ++level1;
    data::dataset out(ds.shape(), ds.num_classes());
    std::vector<std::uint8_t> image;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        const auto source = ds.image(i);
        image.assign(source.begin(), source.end());
        for (std::uint8_t& x : image) {
            if (enc.quantize_intensity(x) == 0) x = static_cast<std::uint8_t>(level1);
        }
        out.add(image, ds.label(i));
    }
    return out;
}

/// One D of the stored-vs-rematerialize sweep (784 pixels throughout):
/// exact threshold-state bytes of both modes and single-thread encode
/// rates. gcmp_per_s is the dimension-normalized rate (pixel x dim
/// compares per second) — the measure that exposes the stored bank falling
/// out of LLC while the rematerializing stream holds rate. The stored
/// batch rate is encode_sign_batch over one serve-sized micro-batch, which
/// reads the bank once per batch instead of once per image. build_seconds
/// is the stored encoder's construction (direction table and bank), which
/// every model load pays again: model files keep only the seed.
struct sweep_row {
    std::size_t dim;
    std::size_t byte_bank_bytes;
    std::size_t stored_bytes;
    std::size_t remat_bytes;
    double reduction;
    double stored_reduction;
    bench::timing stored_seconds;       ///< per image
    bench::timing remat_seconds;        ///< per image
    bench::timing stored_batch_seconds; ///< per image
    bench::timing build_seconds;        ///< one stored uhd_encoder construction
    double stored_img_per_s;
    double remat_img_per_s;
    double stored_batch_img_per_s;
    double stored_gcmp_per_s;
    double remat_gcmp_per_s;
    bool identical;
};

/// Hard gates of the encode JSON: remat output bit-identical to stored at
/// every swept D, and >= 100x threshold-state reduction at the paper's
/// 784 x 8192 point, measured against the 8-bit bank (pixels x D bytes)
/// the bound was set on. throughput_hold is reported alongside: remat
/// compare-rate at the largest D (bank far past LLC) relative to the
/// smallest D.
struct encode_gates {
    bool bit_identity;
    bool footprint_100x;
    double throughput_hold;
};

void write_encode_json(std::FILE* f, const data::image_shape& shape, std::size_t dim,
                       unsigned quant_levels, std::size_t images,
                       const std::vector<throughput_entry>& entries,
                       const std::vector<sweep_row>& sweep,
                       const std::vector<kernel_row>& kernel_rows,
                       const encode_gates& gates) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"encode\",\n");
    std::fprintf(f, "  \"schema_version\": 8,\n");
    std::fprintf(f,
                 "  \"workload\": {\"rows\": %zu, \"cols\": %zu, \"dim\": %zu, "
                 "\"quant_levels\": %u, \"images\": %zu},\n",
                 shape.rows, shape.cols, dim, quant_levels, images);
    write_backend_json(f);
    std::fprintf(f, "  \"entries\": [\n");
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& e = entries[i];
        std::fprintf(f, "    {\"name\": \"%s\", \"threads\": %zu, ", e.name.c_str(),
                     e.threads);
        write_timing(f, "seconds", e.seconds);
        std::fprintf(f,
                     ", \"images_per_s\": %.1f, \"gb_per_s\": %.3f, "
                     "\"speedup_vs_scalar\": %.2f, \"level0_share\": %.4f}%s\n",
                     e.images_per_s, e.gb_per_s, e.speedup_vs_scalar, e.level0_share,
                     i + 1 < entries.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"footprint\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto& r = sweep[i];
        std::fprintf(f,
                     "    {\"dim\": %zu, \"pixels\": %zu, \"byte_bank_bytes\": %zu, "
                     "\"stored_bytes\": %zu, \"remat_bytes\": %zu, "
                     "\"reduction\": %.1f, \"stored_reduction\": %.1f}%s\n",
                     r.dim, shape.pixels(), r.byte_bank_bytes, r.stored_bytes,
                     r.remat_bytes, r.reduction, r.stored_reduction,
                     i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"dsweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto& r = sweep[i];
        std::fprintf(f, "    {\"dim\": %zu, ", r.dim);
        write_timing(f, "stored_seconds", r.stored_seconds);
        std::fprintf(f, ", ");
        write_timing(f, "remat_seconds", r.remat_seconds);
        std::fprintf(f, ",\n     ");
        write_timing(f, "stored_batch_seconds", r.stored_batch_seconds);
        std::fprintf(f, ",\n     ");
        write_timing(f, "build_seconds", r.build_seconds);
        std::fprintf(f,
                     ",\n     \"stored_img_per_s\": %.1f, \"remat_img_per_s\": %.1f, "
                     "\"stored_batch_img_per_s\": %.1f, "
                     "\"stored_gcmp_per_s\": %.3f, \"remat_gcmp_per_s\": %.3f, "
                     "\"identical\": %s}%s\n",
                     r.stored_img_per_s, r.remat_img_per_s, r.stored_batch_img_per_s,
                     r.stored_gcmp_per_s, r.remat_gcmp_per_s,
                     r.identical ? "true" : "false", i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    write_kernels_json(f, kernel_rows);
    std::fprintf(f,
                 "  \"gates\": {\"bit_identity\": %s, \"footprint_100x\": %s, "
                 "\"throughput_hold\": %.3f}\n",
                 gates.bit_identity ? "true" : "false",
                 gates.footprint_100x ? "true" : "false", gates.throughput_hold);
    std::fprintf(f, "}\n");
}

[[nodiscard]] int run_encode_throughput() {
    const std::size_t dim = 1024;
    const auto images_n = std::max<std::size_t>(
        1, static_cast<std::size_t>(env_int("UHD_BENCH_IMAGES", 64)));
    const data::dataset ds = data::make_synthetic_digits(images_n, 7); // 28x28
    core::uhd_config cfg;
    cfg.dim = dim;
    const core::uhd_encoder enc(cfg, ds.shape());

    // gb_per_s counts threshold compares in units of the 8-bit bank:
    // pixels x dim bytes per image, the unit every schema version has used.
    const double bytes_per_image =
        static_cast<double>(enc.pixels()) * static_cast<double>(enc.dim());
    const double digits_share = level0_share(enc, ds, images_n);
    std::vector<throughput_entry> entries;

    const auto record = [&](const std::string& name, std::size_t threads,
                            const bench::timing& seconds, double share) {
        throughput_entry e;
        e.name = name;
        e.threads = threads;
        e.seconds = seconds;
        e.images_per_s = static_cast<double>(images_n) / seconds.median;
        e.gb_per_s = e.images_per_s * bytes_per_image * 1e-9;
        e.speedup_vs_scalar =
            entries.empty() ? 1.0 : entries.front().seconds.median / seconds.median;
        e.level0_share = share;
        entries.push_back(e);
        std::printf("%-28s %8.1f img/s %8.3f GB/s  %5.2fx  level-0 %.3f\n", name.c_str(),
                    e.images_per_s, e.gb_per_s, e.speedup_vs_scalar, e.level0_share);
    };

    std::printf("\n== encode throughput: 28x28, D=%zu, xi=%u, %zu images ==\n", dim,
                cfg.quant_levels, images_n);

    // The speedup baseline: the pinned byte-at-a-time scalar oracle.
    std::vector<std::int32_t> acc(dim);
    record("encode_scalar", 1, bench::time_median([&] {
               for (std::size_t i = 0; i < images_n; ++i) {
                   enc.encode_scalar(ds.image(i), acc);
               }
           }),
           digits_share);
    record("encode_word_parallel", 1, time_encode(enc, ds, images_n), digits_share);

    const std::vector<std::uint8_t> flat = bench::flat_images(ds, images_n);
    std::vector<std::int32_t> out(images_n * dim);
    record("encode_batch", 1,
           bench::time_median([&] { enc.encode_batch(flat, images_n, out); }),
           digits_share);
    std::vector<std::uint64_t> packed(images_n * kernels::sign_words(dim));
    record("encode_sign_batch", 1,
           bench::time_median([&] { enc.encode_sign_batch(flat, images_n, packed); }),
           digits_share);
    // The same digits with nothing at level 0: what the level-0 skip costs
    // on inputs without the property (the full active list every image).
    const data::dataset no_level0 = without_level0(enc, ds);
    const std::vector<std::uint8_t> flat_no_level0 =
        bench::flat_images(no_level0, images_n);
    record("encode_sign_batch_no_level0", 1, bench::time_median([&] {
               enc.encode_sign_batch(flat_no_level0, images_n, packed);
           }),
           level0_share(enc, no_level0, images_n));
    // parallel_for runs one chunk on the calling thread, so a pool of
    // N-1 workers computes on N threads; `threads` reports compute threads.
    for (const std::size_t threads : {2u, 4u}) {
        thread_pool pool(threads - 1);
        record("encode_batch_pool" + std::to_string(threads), threads,
               bench::time_median([&] { enc.encode_batch(flat, images_n, out, &pool); }),
               digits_share);
    }

    core::uhd_config remat_cfg = cfg;
    remat_cfg.bank = bank_mode::rematerialize;
    const core::uhd_encoder remat_enc(remat_cfg, ds.shape());
    record("encode_remat", 1, time_encode(remat_enc, ds, images_n), digits_share);

    const double speedup = entries[0].seconds.median / entries[1].seconds.median;
    std::printf("word-parallel vs scalar single-thread speedup: %.2fx %s\n", speedup,
                speedup >= 5.0 ? "(target >= 5x: PASS)" : "(target >= 5x: MISS)");

    // Stored-vs-rematerialize sweep: exact threshold-state footprint and
    // single-thread encode rate as D grows (784 x 16384 = 6.1 MiB of bit
    // planes; remat state stays ~46 KiB).
    // Bit-identity of the two modes at every D and the >= 100x reduction
    // at the paper's 784 x 8192 point are the hard gates of this bench.
    std::printf("\n== encode footprint + D-sweep: 28x28, stored vs rematerialize ==\n");
    std::vector<sweep_row> sweep;
    bool bit_identity = true;
    bool footprint_100x = false;
    const std::size_t sweep_images = std::min<std::size_t>(images_n, 16);
    // One full serve micro-batch of digits, whatever UHD_BENCH_IMAGES is.
    constexpr std::size_t batch_images = 32;
    const std::vector<std::uint8_t> batch_flat =
        bench::flat_images(data::make_synthetic_digits(batch_images, 7), batch_images);
    for (const std::size_t d : {1024u, 4096u, 8192u, 16384u}) {
        core::uhd_config scfg;
        scfg.dim = d;
        core::uhd_config rcfg = scfg;
        rcfg.bank = bank_mode::rematerialize;
        const core::uhd_encoder stored(scfg, ds.shape());
        const core::uhd_encoder remat(rcfg, ds.shape());

        sweep_row row;
        row.dim = d;
        // The gate divides the 8-bit bank (pixels x D) the bound was set on,
        // not the bit planes, so halving the stored bank does not loosen
        // it; stored_reduction reports the bit planes' ratio ungated.
        row.byte_bank_bytes = ds.shape().pixels() * d;
        row.stored_bytes = stored.threshold_bytes();
        row.remat_bytes = remat.threshold_bytes();
        row.reduction = static_cast<double>(row.byte_bank_bytes) /
                        static_cast<double>(row.remat_bytes);
        row.stored_reduction =
            static_cast<double>(row.stored_bytes) / static_cast<double>(row.remat_bytes);
        if (d == 8192 && row.reduction >= 100.0) footprint_100x = true;

        row.identical = true;
        std::vector<std::int32_t> a(d);
        std::vector<std::int32_t> b(d);
        for (std::size_t i = 0; i < sweep_images; ++i) {
            stored.encode(ds.image(i), a);
            remat.encode(ds.image(i), b);
            if (a != b) row.identical = false;
        }
        bit_identity = bit_identity && row.identical;

        const auto per_image = static_cast<double>(sweep_images);
        row.stored_seconds = time_encode(stored, ds, sweep_images).per(per_image);
        row.remat_seconds = time_encode(remat, ds, sweep_images).per(per_image);
        std::vector<std::uint64_t> batch_out(batch_images * kernels::sign_words(d));
        row.stored_batch_seconds =
            bench::time_median([&] {
                stored.encode_sign_batch(batch_flat, batch_images, batch_out);
            }).per(static_cast<double>(batch_images));
        row.build_seconds = bench::time_median(
            [&] { bench::keep(core::uhd_encoder(scfg, ds.shape()).dim()); });
        row.stored_img_per_s = 1.0 / row.stored_seconds.median;
        row.remat_img_per_s = 1.0 / row.remat_seconds.median;
        row.stored_batch_img_per_s = 1.0 / row.stored_batch_seconds.median;
        // Compare-ops/s normalizes out the D-proportional work per image:
        // this is the rate that must hold flat for remat past LLC.
        const double pixels = static_cast<double>(ds.shape().pixels());
        row.stored_gcmp_per_s =
            row.stored_img_per_s * static_cast<double>(d) * pixels * 1e-9;
        row.remat_gcmp_per_s =
            row.remat_img_per_s * static_cast<double>(d) * pixels * 1e-9;
        std::printf("D=%-6zu stored %9zu B  remat %6zu B  (%6.1fx vs 8-bit bank, "
                    "%5.1fx vs stored)  %7.1f vs %7.1f img/s (batch of %zu: %7.1f)  "
                    "%.2f vs %.2f Gcmp/s  build %.2f ms  %s\n",
                    d, row.stored_bytes, row.remat_bytes, row.reduction,
                    row.stored_reduction, row.stored_img_per_s, row.remat_img_per_s,
                    batch_images, row.stored_batch_img_per_s, row.stored_gcmp_per_s,
                    row.remat_gcmp_per_s, row.build_seconds.median * 1e3,
                    row.identical ? "identical" : "DIVERGED");
        sweep.push_back(row);
    }

    encode_gates gates;
    gates.bit_identity = bit_identity;
    gates.footprint_100x = footprint_100x;
    gates.throughput_hold =
        sweep.back().remat_gcmp_per_s / sweep.front().remat_gcmp_per_s;
    std::printf("gates: bit_identity %s, footprint_100x@8192 %s, "
                "remat rate hold D=%zu->%zu: %.2fx\n",
                gates.bit_identity ? "PASS" : "FAIL",
                gates.footprint_100x ? "PASS" : "FAIL", sweep.front().dim,
                sweep.back().dim, gates.throughput_hold);

    std::printf("\n== encode kernels, every admissible backend (784-pixel bank) ==\n");
    const std::vector<kernel_row> kernel_rows = time_encode_kernels();
    print_kernel_rows(kernel_rows);

    const bool written = write_json_file(
        env_string("UHD_BENCH_JSON", "BENCH_encode.json"), [&](std::FILE* f) {
            write_encode_json(f, ds.shape(), dim, cfg.quant_levels, images_n, entries,
                              sweep, kernel_rows, gates);
        });
    if (!gates.bit_identity) {
        std::fprintf(stderr,
                     "FAIL: rematerialized encode diverged from the stored bank\n");
        return 1;
    }
    if (!gates.footprint_100x) {
        std::fprintf(stderr,
                     "FAIL: threshold-state reduction below 100x at 784 x 8192\n");
        return 1;
    }
    return written ? 0 : 1;
}

// --- train throughput + BENCH_train.json ------------------------------------

struct train_entry {
    std::string name;
    std::size_t dim;
    std::size_t images; ///< training images per fit
    std::size_t threads;
    bench::timing seconds; ///< per fit over `images` images
    double images_per_s;
    double speedup_vs_seed; ///< NaN unless the seed loop ran on the same set and D
};

/// One (set, D) pair the determinism gate checked: fit_parallel on
/// `threads` threads against the sequential fit, class accumulator by
/// accumulator.
struct train_gate {
    std::size_t images;
    std::size_t dim;
    std::size_t threads;
    bool identical;
};

/// The seed-era sequential training loop over the first `n` dataset
/// images: per-image pinned-scalar-oracle encode + bundle into the class
/// accumulator, then per-class sign binarization — the baseline every
/// training speedup is measured against. Returns a value of the result so
/// the loop cannot be elided.
std::size_t fit_seed(const core::uhd_encoder& enc, const data::dataset& ds,
                     std::size_t n) {
    std::vector<hdc::accumulator> acc(ds.num_classes(), hdc::accumulator(enc.dim()));
    std::vector<std::int32_t> scratch(enc.dim());
    for (std::size_t i = 0; i < n; ++i) {
        enc.encode_scalar(ds.image(i), scratch);
        acc[ds.label(i)].add_values(scratch);
    }
    std::size_t negatives = 0;
    for (const auto& a : acc) negatives += a.sign().count_negative();
    return negatives;
}

void write_train_json(std::FILE* f, const data::image_shape& shape, std::size_t dim,
                      unsigned quant_levels, std::size_t images, std::size_t classes,
                      bool deterministic, const std::vector<train_gate>& gates,
                      const std::vector<train_entry>& entries) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"train\",\n");
    std::fprintf(f, "  \"schema_version\": 5,\n");
    std::fprintf(f,
                 "  \"workload\": {\"rows\": %zu, \"cols\": %zu, \"dim\": %zu, "
                 "\"quant_levels\": %u, \"images\": %zu, \"classes\": %zu},\n",
                 shape.rows, shape.cols, dim, quant_levels, images, classes);
    write_backend_json(f);
    std::fprintf(f, "  \"determinism\": {\"parallel_matches_sequential\": %s, \"sets\": [",
                 deterministic ? "true" : "false");
    for (std::size_t i = 0; i < gates.size(); ++i) {
        std::fprintf(f, "{\"images\": %zu, \"dim\": %zu, \"threads\": %zu, \"identical\": %s}%s",
                     gates[i].images, gates[i].dim, gates[i].threads,
                     gates[i].identical ? "true" : "false", i + 1 < gates.size() ? ", " : "");
    }
    std::fprintf(f, "]},\n");
    std::fprintf(f, "  \"entries\": [\n");
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& e = entries[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"dim\": %zu, \"images\": %zu, "
                     "\"threads\": %zu, ",
                     e.name.c_str(), e.dim, e.images, e.threads);
        write_timing(f, "seconds", e.seconds);
        std::fprintf(f, ", \"images_per_s\": %.1f, \"speedup_vs_seed\": ", e.images_per_s);
        if (std::isnan(e.speedup_vs_seed)) {
            std::fprintf(f, "null");
        } else {
            std::fprintf(f, "%.2f", e.speedup_vs_seed);
        }
        std::fprintf(f, "}%s\n", i + 1 < entries.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
}

[[nodiscard]] int run_train_throughput() {
    // The acceptance workload: synthetic MNIST-shaped 28x28 images at
    // D=1024, 10 classes. The baseline is the seed's per-image sequential
    // loop (pinned-scalar encode + bundle); the engine entries are the
    // current sequential fit (word-parallel encode) and the mini-batch
    // parallel fit at several pool sizes. One more parallel fit runs the
    // same digits at D=8192, where the bank (3 MiB) is past L2. These
    // small-set fits stay on the trainer's per-image lanes (below its
    // histogram size rule). Two more 3-thread fits run perfbench's
    // training sets, which take the histogram path: 30,000 digits at
    // D=1024 and 2,000 at D=8192. UHD_BENCH_TRAIN_IMAGES sizes the small
    // set (default 128); when set, it also caps the large ones.
    const std::size_t dim = 1024;
    const std::size_t wide_dim = 8192;
    const auto knob = static_cast<std::size_t>(env_int("UHD_BENCH_TRAIN_IMAGES", 0));
    const std::size_t images_n = knob == 0 ? 128 : knob;
    const auto large = [&](std::size_t n) { return knob == 0 ? n : std::min(n, knob); };
    const data::dataset ds = data::make_synthetic_digits(images_n, 7); // 28x28
    const data::dataset raw_query_set = data::make_synthetic_digits(large(30000), 8);
    const data::dataset online_learn_set = data::make_synthetic_digits(large(2000), 9);
    core::uhd_config cfg;
    cfg.dim = dim;
    const core::uhd_encoder enc(cfg, ds.shape());
    core::uhd_config wide_cfg = cfg;
    wide_cfg.dim = wide_dim;
    const core::uhd_encoder wide_enc(wide_cfg, ds.shape());
    using classifier = hdc::hd_classifier<core::uhd_encoder>;

    // Determinism gate before any timing, for every (set, D) pair timed:
    // the parallel engine must be bit-identical to the sequential fit, or
    // its speedup means nothing. The 128-image sets are gated on 4 threads
    // (the widest row timed on them), perfbench's sets on the 3 their rows
    // run on.
    std::vector<train_gate> gates;
    const auto gate = [&](const core::uhd_encoder& encoder, const data::dataset& set,
                          std::size_t threads) {
        classifier clf_seq(encoder, set.num_classes(), hdc::train_mode::raw_sums);
        clf_seq.fit(set);
        thread_pool pool(threads - 1);
        classifier clf_par(encoder, set.num_classes(), hdc::train_mode::raw_sums);
        clf_par.fit_parallel(set, &pool);
        bool identical = true;
        for (std::size_t c = 0; c < clf_seq.classes(); ++c) {
            const auto a = clf_seq.class_accumulator(c).values();
            const auto b = clf_par.class_accumulator(c).values();
            identical = identical && std::equal(a.begin(), a.end(), b.begin());
        }
        gates.push_back({set.size(), encoder.dim(), threads, identical});
    };
    gate(enc, ds, 4);
    gate(wide_enc, ds, 4);
    gate(enc, raw_query_set, 3);
    gate(wide_enc, online_learn_set, 3);
    bool deterministic = true;
    for (const train_gate& g : gates) deterministic = deterministic && g.identical;

    std::vector<train_entry> entries;
    const auto record = [&](const std::string& name, std::size_t entry_dim,
                            std::size_t images, std::size_t threads,
                            const bench::timing& seconds) {
        train_entry e;
        e.name = name;
        e.dim = entry_dim;
        e.images = images;
        e.threads = threads;
        e.seconds = seconds;
        e.images_per_s = static_cast<double>(images) / seconds.median;
        e.speedup_vs_seed = entries.empty() ? 1.0
                            : entry_dim == dim && images == images_n
                                ? entries.front().seconds.median / seconds.median
                                : std::nan("");
        entries.push_back(e);
        // A row without a seed baseline (NaN, null in the JSON) prints '-'.
        char speedup[16] = "     -";
        if (!std::isnan(e.speedup_vs_seed)) {
            std::snprintf(speedup, sizeof speedup, "%5.2fx", e.speedup_vs_seed);
        }
        std::printf("%-28s D=%-5zu %6zu images %10.1f img/s  %s\n", name.c_str(),
                    entry_dim, images, e.images_per_s, speedup);
    };

    std::printf("\n== train throughput: 28x28, D=%zu, %zu classes, %zu images ==\n",
                dim, ds.num_classes(), images_n);
    for (const train_gate& g : gates) {
        std::printf("parallel-fit (%zu threads) vs sequential fit, %zu images at D=%zu: %s\n",
                    g.threads, g.images, g.dim, g.identical ? "bit-identical" : "MISMATCH!");
    }

    record("fit_seed_sequential", dim, images_n, 1,
           bench::time_median([&] { bench::keep(fit_seed(enc, ds, images_n)); }));
    // A fit adds into the class accumulators, so every sample of one
    // classifier does the same work.
    {
        classifier clf(enc, ds.num_classes(), hdc::train_mode::raw_sums);
        record("fit_sequential", dim, images_n, 1, bench::time_median([&] { clf.fit(ds); }));
    }
    {
        classifier clf(enc, ds.num_classes(), hdc::train_mode::raw_sums);
        record("fit_parallel_1t", dim, images_n, 1,
               bench::time_median([&] { clf.fit_parallel(ds, nullptr); }));
    }
    double best_parallel_speedup = 0.0;
    for (const std::size_t threads : {2u, 4u}) {
        thread_pool pool(threads - 1);
        classifier clf(enc, ds.num_classes(), hdc::train_mode::raw_sums);
        record("fit_parallel_" + std::to_string(threads) + "t", dim, images_n, threads,
               bench::time_median([&] { clf.fit_parallel(ds, &pool); }));
        best_parallel_speedup =
            std::max(best_parallel_speedup, entries.back().speedup_vs_seed);
    }
    {
        thread_pool pool(2);
        const auto fit_3t = [&](const core::uhd_encoder& encoder, const data::dataset& set) {
            classifier clf(encoder, set.num_classes(), hdc::train_mode::raw_sums);
            record("fit_parallel_3t", encoder.dim(), set.size(), 3,
                   bench::time_median([&] { clf.fit_parallel(set, &pool); }));
        };
        fit_3t(wide_enc, ds);
        fit_3t(enc, raw_query_set);
        fit_3t(wide_enc, online_learn_set);
    }

    const bool speedup_ok = best_parallel_speedup >= 4.0;
    std::printf("multi-thread parallel fit vs seed sequential loop: %.2fx %s\n",
                best_parallel_speedup,
                speedup_ok ? "(target >= 4x: PASS)" : "(target >= 4x: MISS)");

    const bool written = write_json_file(
        env_string("UHD_BENCH_TRAIN_JSON", "BENCH_train.json"), [&](std::FILE* f) {
            write_train_json(f, ds.shape(), dim, cfg.quant_levels, images_n,
                             ds.num_classes(), deterministic, gates, entries);
        });
    return deterministic && speedup_ok && written ? 0 : 1;
}

// --- inference throughput + BENCH_inference.json ----------------------------
//
// Queries are pre-encoded (encode has its own file), so these rows time the
// pure inference stage: binarize + argmax. The scalar baselines reproduce
// the seed-era predict exactly: per-element set_bit binarization + one
// cosine() call per class (binarized mode), and a per-class
// double-accumulating cosine scan (integer mode).

/// Same trained state as `src` under a different query mode, without a
/// second training pass (accumulators copied through load_state).
template <typename Encoder>
hdc::hd_classifier<Encoder> clone_with_query_mode(const hdc::hd_classifier<Encoder>& src,
                                                  hdc::query_mode qm) {
    hdc::hd_classifier<Encoder> out(src.encoder(), src.classes(), src.mode(), qm);
    std::vector<hdc::accumulator> accs;
    accs.reserve(src.classes());
    for (std::size_t c = 0; c < src.classes(); ++c) {
        accs.push_back(src.class_accumulator(c));
    }
    out.load_state(std::move(accs));
    return out;
}

/// Seed-era binarized inference over a pre-encoded query: per-element
/// set_bit + per-class cosine, strict-> first-wins argmax.
template <typename Classifier>
std::size_t seed_predict_binarized(const Classifier& clf,
                                   std::span<const std::int32_t> encoded) {
    bs::bitstream bits(encoded.size());
    for (std::size_t d = 0; d < encoded.size(); ++d) {
        if (encoded[d] < 0) bits.set_bit(d, true);
    }
    const hdc::hypervector query(std::move(bits));
    std::size_t best = 0;
    double best_similarity = -2.0;
    for (std::size_t c = 0; c < clf.classes(); ++c) {
        const double similarity = hdc::cosine(query, clf.class_hypervector(c));
        if (similarity > best_similarity) {
            best_similarity = similarity;
            best = c;
        }
    }
    return best;
}

/// Seed-era integer inference over a pre-encoded query: one
/// double-accumulating cosine() per class.
template <typename Classifier>
std::size_t seed_predict_integer(const Classifier& clf,
                                 std::span<const std::int32_t> encoded) {
    std::size_t best = 0;
    double best_similarity = -2.0;
    for (std::size_t c = 0; c < clf.classes(); ++c) {
        const double similarity =
            hdc::cosine(encoded, clf.class_accumulator(c).values());
        if (similarity > best_similarity) {
            best_similarity = similarity;
            best = c;
        }
    }
    return best;
}

/// Median seconds per query of `predict(i)` over queries [0, n).
template <typename Fn>
bench::timing time_queries(std::size_t n, const Fn& predict) {
    return bench::time_median([&] {
               std::size_t answers = 0;
               for (std::size_t i = 0; i < n; ++i) answers += predict(i);
               bench::keep(answers);
           })
        .per(static_cast<double>(n));
}

struct inference_entry {
    std::string name;
    std::string mode;
    std::size_t threads;
    bench::timing seconds; ///< per query
    double queries_per_s;
    double speedup_vs_scalar;
};

/// Dynamic-dimension cascade measurements for the inference JSON.
struct dynamic_report {
    double target_agreement = 0.0;
    std::size_t matched = 0;          ///< argmax agreement with full-D
    std::size_t queries = 0;
    double avg_words_scanned = 0.0;   ///< packed words popcounted per query
    std::size_t full_words = 0;       ///< classes * words_per_class
    std::vector<hdc::dynamic_stage> stages;
    std::vector<std::size_t> exits;   ///< per-stage exit counts
};

/// One block-size point of the multi-query blocked-inference sweep.
struct block_entry {
    std::size_t block = 1;          ///< queries per nearest_block call
    bench::timing seconds;          ///< per query
    double queries_per_s = 0.0;
    double speedup_vs_per_query = 0.0;
};

/// The blocked-inference sweep's memory: enough class rows (8 MiB packed
/// at D=8192) to outgrow the fast caches, and its query count.
constexpr std::size_t block_classes = 4096;
constexpr std::size_t block_queries = 128;

/// Blocked-inference measurements for the inference JSON.
struct block_report {
    bool identical = true;          ///< block answers == per-query answers
    double best_speedup = 0.0;      ///< max over the sweep
    std::vector<block_entry> entries;
};

/// Measure the query-GEMM path: a many-class packed memory (the blocking
/// win is row *reuse*, so the class rows must outgrow the fast caches —
/// the 10-class digits memory is ~10 KiB and fits in L1) answered per
/// query via nearest() and in blocks of 4/8/16/32 via nearest_block().
/// Every block answer is checked bit-identical to the per-query one.
[[nodiscard]] block_report run_block_throughput(std::size_t dim) {
    block_report report;
    xoshiro256ss rng(0x9e3779b97f4a7c15ull);
    hdc::class_memory mem(block_classes, dim);
    for (std::size_t c = 0; c < block_classes; ++c) {
        mem.store(c, hdc::hypervector::random(dim, rng));
    }
    const std::size_t words = mem.words_per_class();
    std::vector<std::uint64_t> packed(block_queries * words);
    for (std::size_t q = 0; q < block_queries; ++q) {
        const auto query_words = hdc::hypervector::random(dim, rng).bits().words();
        std::copy(query_words.begin(), query_words.end(),
                  packed.begin() + static_cast<std::ptrdiff_t>(q * words));
    }

    std::printf("\n== blocked inference (query-GEMM): D=%zu, %zu classes "
                "(%.1f MiB packed), %zu queries ==\n",
                dim, block_classes,
                static_cast<double>(block_classes * words * 8) / (1024.0 * 1024.0),
                block_queries);

    std::vector<std::size_t> per_query(block_queries);
    const auto answer_per_query = [&] {
        for (std::size_t q = 0; q < block_queries; ++q) {
            per_query[q] = mem.nearest(
                std::span<const std::uint64_t>(packed.data() + q * words, words));
        }
    };
    answer_per_query();
    const bench::timing per_query_s =
        bench::time_median(answer_per_query).per(static_cast<double>(block_queries));
    report.entries.push_back({1, per_query_s, 1.0 / per_query_s.median, 1.0});
    std::printf("block=%-3zu %12.1f query/s  %6.2fx\n", std::size_t{1},
                1.0 / per_query_s.median, 1.0);

    std::vector<std::size_t> blocked(block_queries);
    for (const std::size_t block : {4u, 8u, 16u, 32u}) {
        const auto answer_blocked = [&] {
            for (std::size_t q = 0; q < block_queries; q += block) {
                const std::size_t count = std::min(block, block_queries - q);
                mem.nearest_block(
                    std::span<const std::uint64_t>(packed.data() + q * words,
                                                   count * words),
                    count, std::span<std::size_t>(blocked.data() + q, count));
            }
        };
        answer_blocked();
        if (blocked != per_query) report.identical = false;
        const bench::timing seconds =
            bench::time_median(answer_blocked).per(static_cast<double>(block_queries));
        const double speedup = per_query_s.median / seconds.median;
        report.entries.push_back({block, seconds, 1.0 / seconds.median, speedup});
        report.best_speedup = std::max(report.best_speedup, speedup);
        std::printf("block=%-3zu %12.1f query/s  %6.2fx\n", block, 1.0 / seconds.median,
                    speedup);
    }
    std::printf("block answers bit-identical to per-query: %s; best speedup "
                "%.2fx %s\n",
                report.identical ? "yes" : "NO (MISMATCH!)", report.best_speedup,
                report.best_speedup >= 2.0 ? "(target >= 2x: PASS)"
                                           : "(target >= 2x: MISS)");
    return report;
}

void write_inference_json(std::FILE* f, std::size_t dim, std::size_t classes,
                          std::size_t queries, std::size_t matched,
                          const dynamic_report& dynamic, const block_report& block,
                          const std::vector<inference_entry>& entries,
                          const std::vector<kernel_row>& kernel_rows) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"inference\",\n");
    std::fprintf(f, "  \"schema_version\": 5,\n");
    std::fprintf(f,
                 "  \"workload\": {\"dim\": %zu, \"classes\": %zu, "
                 "\"queries\": %zu},\n",
                 dim, classes, queries);
    write_backend_json(f);
    std::fprintf(f, "  \"agreement\": {\"matched\": %zu, \"queries\": %zu},\n",
                 matched, queries);
    std::fprintf(f, "  \"dynamic\": {\n");
    std::fprintf(f, "    \"target_agreement\": %.4f,\n", dynamic.target_agreement);
    std::fprintf(f, "    \"agreement\": {\"matched\": %zu, \"queries\": %zu},\n",
                 dynamic.matched, dynamic.queries);
    std::fprintf(f, "    \"avg_words_scanned_per_query\": %.1f,\n",
                 dynamic.avg_words_scanned);
    std::fprintf(f, "    \"full_words_per_query\": %zu,\n", dynamic.full_words);
    std::fprintf(f, "    \"avg_scan_fraction\": %.4f,\n",
                 dynamic.full_words == 0
                     ? 1.0
                     : dynamic.avg_words_scanned /
                           static_cast<double>(dynamic.full_words));
    std::fprintf(f, "    \"stages\": [\n");
    for (std::size_t s = 0; s < dynamic.stages.size(); ++s) {
        const bool disabled = dynamic.stages[s].margin_threshold ==
                              hdc::dynamic_query_policy::disabled_threshold;
        std::fprintf(f, "      {\"window_words\": %zu, \"margin_threshold\": ",
                     dynamic.stages[s].window_words);
        if (disabled) {
            std::fprintf(f, "null");
        } else {
            std::fprintf(f, "%llu",
                         static_cast<unsigned long long>(
                             dynamic.stages[s].margin_threshold));
        }
        std::fprintf(f, ", \"exits\": %zu}%s\n", dynamic.exits[s],
                     s + 1 < dynamic.stages.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  },\n");
    // The multi-query blocked path (query-GEMM) over a many-class memory,
    // swept across block sizes, with its bit-identity flag and the >= 2x
    // acceptance gate.
    std::fprintf(f, "  \"block\": {\n");
    std::fprintf(f,
                 "    \"workload\": {\"dim\": %zu, \"classes\": %zu, "
                 "\"queries\": %zu},\n",
                 dim, block_classes, block_queries);
    std::fprintf(f, "    \"identical_to_per_query\": %s,\n",
                 block.identical ? "true" : "false");
    std::fprintf(f, "    \"best_speedup\": %.2f,\n", block.best_speedup);
    std::fprintf(f, "    \"entries\": [\n");
    for (std::size_t i = 0; i < block.entries.size(); ++i) {
        const block_entry& e = block.entries[i];
        std::fprintf(f, "      {\"block\": %zu, ", e.block);
        write_timing(f, "seconds", e.seconds);
        std::fprintf(f, ", \"queries_per_s\": %.1f, \"speedup_vs_per_query\": %.2f}%s\n",
                     e.queries_per_s, e.speedup_vs_per_query,
                     i + 1 < block.entries.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"gates\": {\"speedup_2x\": %s}\n",
                 block.best_speedup >= 2.0 ? "true" : "false");
    std::fprintf(f, "  },\n");
    write_kernels_json(f, kernel_rows);
    std::fprintf(f, "  \"entries\": [\n");
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& e = entries[i];
        std::fprintf(f, "    {\"name\": \"%s\", \"mode\": \"%s\", \"threads\": %zu, ",
                     e.name.c_str(), e.mode.c_str(), e.threads);
        write_timing(f, "seconds", e.seconds);
        std::fprintf(f, ", \"queries_per_s\": %.1f, \"speedup_vs_scalar\": %.2f}%s\n",
                     e.queries_per_s, e.speedup_vs_scalar,
                     i + 1 < entries.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
}

[[nodiscard]] int run_inference_throughput() {
    // The acceptance workload: D=8192, 10 classes, single thread, pure
    // inference stage (queries pre-encoded — encode has its own section).
    const std::size_t dim = 8192;
    const auto queries_n = std::max<std::size_t>(
        1, static_cast<std::size_t>(env_int("UHD_BENCH_QUERIES", 256)));
    const data::dataset train_set = data::make_synthetic_digits(200, 7);
    const data::dataset query_set = data::make_synthetic_digits(queries_n, 9);

    core::uhd_config cfg;
    cfg.dim = dim;
    const core::uhd_encoder enc(cfg, train_set.shape());
    hdc::hd_classifier<core::uhd_encoder> clf_bin(enc, train_set.num_classes(),
                                                  hdc::train_mode::raw_sums,
                                                  hdc::query_mode::binarized);
    clf_bin.fit(train_set);
    const auto clf_int = clone_with_query_mode(clf_bin, hdc::query_mode::integer);

    const std::vector<std::int32_t> encoded =
        bench::encode_queries(enc, query_set, queries_n);
    const auto query = [&](std::size_t i) {
        return std::span<const std::int32_t>(encoded).subspan(i * dim, dim);
    };

    // The packed path must agree with the seed path on every query before
    // its speedup means anything.
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < queries_n; ++i) {
        if (clf_bin.predict_encoded(query(i)) != seed_predict_binarized(clf_bin, query(i))) {
            ++mismatches;
        }
    }

    std::vector<inference_entry> entries;
    double binarized_scalar_s = 0.0;
    double integer_scalar_s = 0.0;
    const auto record = [&](const std::string& name, const std::string& mode,
                            const bench::timing& seconds) {
        inference_entry e;
        e.name = name;
        e.mode = mode;
        e.threads = 1;
        e.seconds = seconds;
        e.queries_per_s = 1.0 / seconds.median;
        double& baseline = mode == "binarized" ? binarized_scalar_s : integer_scalar_s;
        if (baseline == 0.0) baseline = seconds.median;
        e.speedup_vs_scalar = baseline / seconds.median;
        entries.push_back(e);
        std::printf("%-28s %10.1f query/s  %6.2fx\n", name.c_str(), e.queries_per_s,
                    e.speedup_vs_scalar);
    };

    std::printf("\n== inference throughput: D=%zu, %zu classes, %zu queries "
                "(pre-encoded, 1 thread) ==\n",
                dim, clf_bin.classes(), queries_n);
    std::printf("packed vs seed argmax agreement: %zu/%zu%s\n",
                queries_n - mismatches, queries_n,
                mismatches == 0 ? "" : "  (MISMATCH!)");

    // Each mode's first row is its scalar baseline.
    record("inference_cosine_scalar", "binarized", time_queries(queries_n, [&](std::size_t i) {
               return seed_predict_binarized(clf_bin, query(i));
           }));
    record("inference_packed_am", "binarized", time_queries(queries_n, [&](std::size_t i) {
               return clf_bin.predict_encoded(query(i));
           }));
    record("inference_integer_scalar", "integer", time_queries(queries_n, [&](std::size_t i) {
               return seed_predict_integer(clf_int, query(i));
           }));
    record("inference_integer_blocked", "integer", time_queries(queries_n, [&](std::size_t i) {
               return clf_int.predict_encoded(query(i));
           }));

    // --- dynamic-dimension early-exit cascade ----------------------------
    // Calibrated on a held-out synthetic set (fresh seed) for 99% agreement
    // with the full-D answer, then evaluated on the bench queries: argmax
    // agreement, average packed words scanned, and the per-stage exit
    // histogram all land in the JSON and are gated below.
    const double target_agreement = 0.99;
    const data::dataset calib_set = data::make_synthetic_digits(
        std::max<std::size_t>(64, queries_n / 2), 13);
    const hdc::dynamic_query_policy policy =
        clf_bin.calibrate_dynamic(calib_set, target_agreement);

    hdc::dynamic_query_summary summary(policy.stages().size());
    for (std::size_t i = 0; i < queries_n; ++i) {
        hdc::dynamic_query_stats stats;
        const std::size_t answer =
            clf_bin.predict_dynamic_encoded(query(i), policy, &stats);
        summary.record(stats, answer == clf_bin.predict_encoded(query(i)));
    }
    dynamic_report dyn;
    dyn.target_agreement = target_agreement;
    dyn.queries = queries_n;
    dyn.matched = summary.agreements;
    dyn.full_words = clf_bin.packed_class_memory().classes() *
                     clf_bin.packed_class_memory().words_per_class();
    dyn.stages.assign(policy.stages().begin(), policy.stages().end());
    dyn.exits = summary.exits;
    dyn.avg_words_scanned = summary.avg_words_scanned();
    const double scan_fraction =
        dyn.avg_words_scanned / static_cast<double>(dyn.full_words);

    record("inference_dynamic_am", "binarized", time_queries(queries_n, [&](std::size_t i) {
               return clf_bin.predict_dynamic_encoded(query(i), policy);
           }));

    std::printf("dynamic cascade (target %.0f%%): agreement %zu/%zu, avg words "
                "scanned %.1f/%zu (%.1f%%)\n",
                100.0 * target_agreement, dyn.matched, queries_n,
                dyn.avg_words_scanned, dyn.full_words, 100.0 * scan_fraction);
    std::printf("exit histogram:");
    for (std::size_t s = 0; s < dyn.stages.size(); ++s) {
        std::printf(" D/%zu:%zu",
                    clf_bin.packed_class_memory().words_per_class() /
                        dyn.stages[s].window_words,
                    dyn.exits[s]);
    }
    std::printf("\n");

    // --- multi-query blocked path (query-GEMM) ---------------------------
    const block_report block = run_block_throughput(dim);

    const double speedup = entries[0].seconds.median / entries[1].seconds.median;
    std::printf("packed associative-memory vs seed cosine speedup: %.2fx %s\n",
                speedup,
                speedup >= 5.0 ? "(target >= 5x: PASS)" : "(target >= 5x: MISS)");
    const bool dynamic_agreement_ok =
        static_cast<double>(dyn.matched) >= 0.98 * static_cast<double>(queries_n);
    const bool dynamic_scan_ok = scan_fraction <= 0.5;
    std::printf("dynamic gates: agreement >= 98%%: %s, avg scan <= 50%%: %s\n",
                dynamic_agreement_ok ? "PASS" : "MISS",
                dynamic_scan_ok ? "PASS" : "MISS");

    std::printf("\n== inference kernels, every admissible backend (%zu classes) ==\n",
                search_classes);
    const std::vector<kernel_row> kernel_rows = time_inference_kernels();
    print_kernel_rows(kernel_rows);

    const bool written = write_json_file(
        env_string("UHD_BENCH_INFER_JSON", "BENCH_inference.json"), [&](std::FILE* f) {
            write_inference_json(f, dim, clf_bin.classes(), queries_n,
                                 queries_n - mismatches, dyn, block, entries,
                                 kernel_rows);
        });
    // A broken bit-identity — or a cascade that misses its calibrated
    // agreement/scan targets, or a block path that diverges from the
    // per-query answers — is a regression, not a bench result: fail the
    // run so CI's bench smoke surfaces it. (The block >= 2x speedup is a
    // JSON gate, not an exit gate: it holds on cache-tiered hardware but a
    // throttled CI runner must not flake the build over it.)
    return mismatches == 0 && dynamic_agreement_ok && dynamic_scan_ok &&
                   block.identical && written
               ? 0
               : 1;
}

} // namespace

int main() {
    // Resolve the backend before anything times: an invalid UHD_BACKEND
    // must fail the run here, loudly, not midway through a measurement.
    std::printf("# kernel backend: %s (override: %s, cpu: %s)\n",
                kernels::active().name,
                kernels::backend_override().empty()
                    ? "none"
                    : std::string(kernels::backend_override()).c_str(),
                cpu().to_string().c_str());
    std::printf("# every timed row: median of %zu samples after one warm-up\n",
                bench::timing_samples);
    const int encode_status = run_encode_throughput();
    const int train_status = run_train_throughput();
    const int inference_status = run_inference_throughput();
    if (encode_status != 0) return encode_status;
    return train_status != 0 ? train_status : inference_status;
}

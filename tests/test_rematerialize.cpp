// Bit-identity gates of the rematerializing threshold path.
//
// The rematerialize bank mode replaces every stored threshold table with
// O(1)-per-row generator state, so the only acceptable behaviour is exact:
// * ld::quantize_bounds must invert quantize_unit for every fraction it is
//   asked about (the compare-domain transform the fused kernels rely on),
//   and ld::quantize_fraction must equal quantize_unit on each of them;
// * geq_rematerialize_accumulate of every admissible backend must equal the
//   pinned scalar reference on ragged tile shapes, and any tile split must
//   accumulate to the same integers;
// * the rematerializing uhd_encoder and baseline_encoder must match their
//   stored-bank twins bit for bit on every encode path, and both modes'
//   threshold rows must match an independently built quantized bank;
// * model files from the stored-bank era (format v1) must keep loading.
//
// The suite runs under every UHD_BACKEND value (tests/CMakeLists.txt
// registers it in the forced-backend matrix), so the fused kernel of each
// backend faces the oracle both as the active table and directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "uhd/common/error.hpp"

#include "uhd/common/kernels.hpp"
#include "uhd/common/rng.hpp"
#include "uhd/common/simd.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/core/model.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/baseline_encoder.hpp"
#include "uhd/hdc/item_memory.hpp"
#include "uhd/lowdisc/sobol.hpp"

namespace {

using namespace uhd;
using kernels::admissible_backends;

TEST(QuantizeBounds, ExactlyInvertsQuantizeUnit) {
    xoshiro256ss rng(7);
    for (const unsigned levels : {2u, 3u, 16u, 97u, 256u}) {
        const auto bounds = ld::quantize_bounds(levels);
        ASSERT_EQ(bounds.size(), levels);
        EXPECT_EQ(bounds[levels - 1], ~std::uint32_t{0});
        // Random fractions plus every bound's two-sided neighbourhood: the
        // equivalence q >= quantize(f) <=> f <= bounds[q] must hold exactly
        // at the decision edges, not just in the interior.
        std::vector<std::uint32_t> fractions{0u, 1u, ~std::uint32_t{0}};
        for (const std::uint32_t b : bounds) {
            fractions.push_back(b);
            fractions.push_back(b + 1); // wraps to 0 for the last bound: fine
            fractions.push_back(b - 1);
        }
        for (int i = 0; i < 2000; ++i) {
            fractions.push_back(static_cast<std::uint32_t>(rng.next()));
        }
        for (const std::uint32_t f : fractions) {
            const std::uint8_t s = ld::quantize_unit(
                ld::sobol_sequence::fraction_to_unit(f), levels);
            // The integer quantizer agrees everywhere, edges included.
            EXPECT_EQ(ld::quantize_fraction(f, levels), s)
                << "levels=" << levels << " f=" << f;
            for (unsigned q = 0; q < levels; ++q) {
                EXPECT_EQ(q >= s, f <= bounds[q])
                    << "levels=" << levels << " f=" << f << " q=" << q;
            }
        }
    }
}

TEST(RematKernel, EveryBackendMatchesReferenceOnRaggedShapes) {
    xoshiro256ss rng(31);
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t npix = 1 + rng.next() % 40;
        // Ragged begin/count pairs cross the serial head, the 16-wide Gray
        // blocks, and the serial tail of every implementation.
        const std::uint64_t d_begin = rng.next() % 300;
        const std::size_t dim_count = 1 + rng.next() % 200;
        const std::size_t dir_words =
            std::bit_width(d_begin + dim_count) + rng.next() % 3;

        const auto table = ld::sobol_directions::standard(npix, 17);
        std::vector<std::uint32_t> directions(npix * dir_words);
        std::vector<std::uint32_t> shifts(npix);
        std::vector<std::uint32_t> bounds(npix);
        for (std::size_t p = 0; p < npix; ++p) {
            const auto dirs = table.direction_numbers(p);
            for (std::size_t w = 0; w < dir_words; ++w) {
                directions[p * dir_words + w] = dirs[w];
            }
            shifts[p] = static_cast<std::uint32_t>(rng.next());
            bounds[p] = static_cast<std::uint32_t>(rng.next());
        }

        std::vector<std::int32_t> expected(dim_count, 3); // nonzero: += semantics
        simd::geq_rematerialize_accumulate_reference(directions.data(), dir_words,
                                                     shifts.data(), bounds.data(),
                                                     npix, d_begin, dim_count,
                                                     expected.data());
        for (const kernels::kernel_table* backend : admissible_backends()) {
            std::vector<std::int32_t> got(dim_count, 3);
            backend->geq_rematerialize_accumulate(directions.data(), dir_words,
                                                  shifts.data(), bounds.data(), npix,
                                                  d_begin, dim_count, got.data());
            EXPECT_EQ(got, expected)
                << backend->name << " npix=" << npix << " d_begin=" << d_begin
                << " dim_count=" << dim_count << " dir_words=" << dir_words;
        }
    }
}

TEST(RematKernel, TileSplitsAccumulateIdentically) {
    xoshiro256ss rng(47);
    const std::size_t npix = 23;
    const std::size_t dim = 777;
    const std::size_t dir_words = std::bit_width(dim);
    const auto table = ld::sobol_directions::standard(npix, 5);
    std::vector<std::uint32_t> directions(npix * dir_words);
    std::vector<std::uint32_t> shifts(npix);
    std::vector<std::uint32_t> bounds(npix);
    for (std::size_t p = 0; p < npix; ++p) {
        const auto dirs = table.direction_numbers(p);
        for (std::size_t w = 0; w < dir_words; ++w) {
            directions[p * dir_words + w] = dirs[w];
        }
        shifts[p] = static_cast<std::uint32_t>(rng.next());
        bounds[p] = static_cast<std::uint32_t>(rng.next());
    }

    std::vector<std::int32_t> whole(dim, 0);
    simd::geq_rematerialize_accumulate_reference(directions.data(), dir_words,
                                                 shifts.data(), bounds.data(), npix,
                                                 0, dim, whole.data());
    for (const kernels::kernel_table* backend : admissible_backends()) {
        std::vector<std::int32_t> tiled(dim, 0);
        std::size_t d0 = 0;
        while (d0 < dim) { // random ragged split schedule
            const std::size_t count = std::min<std::size_t>(1 + rng.next() % 100,
                                                            dim - d0);
            backend->geq_rematerialize_accumulate(directions.data(), dir_words,
                                                  shifts.data(), bounds.data(), npix,
                                                  d0, count, tiled.data() + d0);
            d0 += count;
        }
        EXPECT_EQ(tiled, whole) << backend->name;
    }
}

core::uhd_config remat_config(const core::uhd_config& base) {
    core::uhd_config cfg = base;
    cfg.bank = bank_mode::rematerialize;
    return cfg;
}

std::vector<std::uint8_t> random_image(std::size_t pixels, xoshiro256ss& rng) {
    std::vector<std::uint8_t> image(pixels);
    for (auto& x : image) x = static_cast<std::uint8_t>(rng.next());
    return image;
}

TEST(RematEncoder, BitIdenticalToStoredOnEveryPath) {
    xoshiro256ss rng(59);
    for (const bool scramble : {true, false}) {
        for (const auto policy :
             {core::binarize_policy::mean_intensity, core::binarize_policy::half_inputs}) {
            core::uhd_config cfg;
            cfg.dim = 1000; // ragged against words, lanes, and the D-tile
            cfg.scramble = scramble;
            cfg.policy = policy;
            const data::image_shape shape{9, 7, 1};
            const core::uhd_encoder stored(cfg, shape);
            const core::uhd_encoder remat(remat_config(cfg), shape);

            for (std::size_t p = 0; p < shape.pixels(); ++p) {
                // Both spans point into the same per-thread buffer: copy the
                // first row before fetching the second.
                const auto srow = stored.sobol_row(p);
                const std::vector<std::uint8_t> stored_row(srow.begin(), srow.end());
                const auto rrow = remat.sobol_row(p);
                const std::vector<std::uint8_t> remat_row(rrow.begin(), rrow.end());
                ASSERT_EQ(stored_row, remat_row) << "pixel " << p;
                // The one-threshold accessor agrees with the row in both modes.
                for (std::size_t d = 0; d < cfg.dim; ++d) {
                    ASSERT_EQ(stored.threshold(p, d), stored_row[d])
                        << "stored p=" << p << " d=" << d;
                    ASSERT_EQ(remat.threshold(p, d), stored_row[d])
                        << "remat p=" << p << " d=" << d;
                }
            }

            for (int trial = 0; trial < 8; ++trial) {
                const auto image = random_image(shape.pixels(), rng);
                EXPECT_EQ(stored.doubled_threshold(image),
                          remat.doubled_threshold(image));
                std::vector<std::int32_t> a(cfg.dim);
                std::vector<std::int32_t> b(cfg.dim);
                stored.encode(image, a);
                remat.encode(image, b);
                EXPECT_EQ(a, b) << "encode, scramble=" << scramble;
                remat.encode_scalar(image, b);
                EXPECT_EQ(a, b) << "encode_scalar";
                EXPECT_EQ(stored.encode_sign(image), remat.encode_sign(image));
                std::vector<std::uint64_t> sa(kernels::sign_words(cfg.dim));
                std::vector<std::uint64_t> sb(sa.size());
                stored.encode_sign_batch(image, 1, sa);
                remat.encode_sign_batch(image, 1, sb);
                EXPECT_EQ(sa, sb) << "encode_sign_batch";
            }
        }
    }
}

TEST(RematEncoder, ThresholdStateShrinksAndBatchMatches) {
    core::uhd_config cfg;
    cfg.dim = 8192;
    const data::image_shape shape{28, 28, 1}; // the paper's 784 x 8192 point
    const core::uhd_encoder stored(cfg, shape);
    const core::uhd_encoder remat(remat_config(cfg), shape);

    // Stored mode holds exactly its bit planes: M = 4 planes of D bits per
    // pixel, half of an 8-bit bank.
    EXPECT_EQ(stored.threshold_bytes(), shape.pixels() * cfg.scalar_bits() * cfg.dim / 8);
    // The rematerializing payoff gate: >= 100x threshold-state reduction,
    // measured against the 8-bit bank (pixels x D bytes) the bound was set
    // on, so halving the stored side does not loosen it.
    EXPECT_GE(shape.pixels() * cfg.dim, 100 * remat.threshold_bytes());
    EXPECT_GT(stored.threshold_bytes(), remat.threshold_bytes());
    EXPECT_LT(remat.memory_bytes(), stored.memory_bytes());

    xoshiro256ss rng(67);
    const std::size_t count = 5;
    std::vector<std::uint8_t> images;
    for (std::size_t i = 0; i < count; ++i) {
        const auto image = random_image(shape.pixels(), rng);
        images.insert(images.end(), image.begin(), image.end());
    }
    std::vector<std::int32_t> a(count * cfg.dim);
    std::vector<std::int32_t> b(count * cfg.dim);
    stored.encode_batch(images, count, a);
    remat.encode_batch(images, count, b);
    EXPECT_EQ(a, b);
}

TEST(RematEncoder, RowsMatchAnIndependentlyBuiltBank) {
    // The bank build pinned to an independent source: every decoded row
    // equals the quantized_sobol_bank row built the old way, value by
    // value, for the Sobol constructor (both modes) and for the
    // custom-bank constructor, up to a D = 8192 bank; and doubled_threshold
    // (read from the CDF the build counts) equals the mean popcount of
    // that bank for random images.
    for (const std::size_t dim : {64u, 1000u, 1088u, 8192u}) {
        for (const unsigned levels : {2u, 16u, 256u}) {
            core::uhd_config cfg;
            cfg.dim = dim;
            cfg.quant_levels = levels;
            const data::image_shape shape{5, 7, 1};
            const ld::quantized_sobol_bank bank(
                ld::sobol_directions::standard(shape.pixels(), cfg.sobol_seed),
                shape.pixels(), cfg.dim, cfg.quant_levels,
                cfg.scramble ? cfg.sobol_seed : 0);
            const core::uhd_encoder stored(cfg, shape);
            const core::uhd_encoder remat(remat_config(cfg), shape);
            xoshiro256ss rng(dim + levels);
            std::vector<std::uint8_t> raw(shape.pixels() * cfg.dim);
            for (auto& v : raw) v = static_cast<std::uint8_t>(rng.next() % levels);
            const core::uhd_encoder custom(
                cfg, shape,
                ld::quantized_sobol_bank::from_raw(shape.pixels(), cfg.dim, levels, raw));
            for (std::size_t p = 0; p < shape.pixels(); ++p) {
                const auto expected = bank.row(p);
                const auto s = stored.sobol_row(p);
                ASSERT_TRUE(std::equal(s.begin(), s.end(), expected.begin()))
                    << "stored dim=" << dim << " levels=" << levels << " p=" << p;
                const auto r = remat.sobol_row(p);
                ASSERT_TRUE(std::equal(r.begin(), r.end(), expected.begin()))
                    << "remat dim=" << dim << " levels=" << levels << " p=" << p;
                const auto c = custom.sobol_row(p);
                ASSERT_TRUE(std::equal(c.begin(), c.end(),
                                       raw.begin() + static_cast<std::ptrdiff_t>(p * dim)))
                    << "custom dim=" << dim << " levels=" << levels << " p=" << p;
            }
            EXPECT_EQ(custom.threshold_bytes(), stored.threshold_bytes());
            for (int trial = 0; trial < 4; ++trial) {
                std::vector<std::uint8_t> image(shape.pixels());
                for (auto& x : image) x = static_cast<std::uint8_t>(rng.next());
                std::int64_t reach = 0;
                for (std::size_t p = 0; p < shape.pixels(); ++p) {
                    const std::uint8_t q = stored.quantize_intensity(image[p]);
                    for (const std::uint8_t s : bank.row(p)) reach += q >= s;
                }
                const auto d = static_cast<std::int64_t>(dim);
                const auto tau2 = static_cast<std::int32_t>((2 * reach + d / 2) / d);
                EXPECT_EQ(stored.doubled_threshold(image), tau2)
                    << "stored dim=" << dim << " levels=" << levels;
                EXPECT_EQ(remat.doubled_threshold(image), tau2)
                    << "remat dim=" << dim << " levels=" << levels;
            }
        }
    }
}

TEST(RematEncoder, CustomBankRejectsRematerializeMode) {
    core::uhd_config cfg;
    cfg.dim = 64;
    const data::image_shape shape{4, 4, 1};
    std::vector<std::uint8_t> raw(shape.pixels() * cfg.dim, 0);
    auto bank = ld::quantized_sobol_bank::from_raw(shape.pixels(), cfg.dim,
                                                   cfg.quant_levels, std::move(raw));
    EXPECT_THROW(core::uhd_encoder(remat_config(cfg), shape, std::move(bank)),
                 uhd::error);
}

TEST(RematItemMemory, RowsMatchStoredForBothSources) {
    for (const auto source : {hdc::randomness_source::xoshiro,
                              hdc::randomness_source::lfsr}) {
        const std::size_t dim = 1000; // ragged tail word
        const hdc::position_item_memory stored_pos(37, dim, source, 99);
        const hdc::position_item_memory remat_pos(37, dim, source, 99,
                                                  bank_mode::rematerialize);
        EXPECT_GT(stored_pos.memory_bytes(), remat_pos.memory_bytes());
        for (std::size_t p = 0; p < 37; ++p) {
            EXPECT_EQ(stored_pos.vector(p), remat_pos.vector(p)) << "row " << p;
        }

        const hdc::level_item_memory stored_lvl(16, dim, source, 123);
        const hdc::level_item_memory remat_lvl(16, dim, source, 123,
                                               bank_mode::rematerialize);
        EXPECT_GT(stored_lvl.memory_bytes(), remat_lvl.memory_bytes());
        for (std::size_t k = 1; k <= 16; ++k) {
            EXPECT_EQ(stored_lvl.vector(k), remat_lvl.vector(k)) << "level " << k;
        }
    }
}

TEST(RematBaseline, BitIdenticalToStoredForBothSources) {
    xoshiro256ss rng(71);
    for (const auto source : {hdc::randomness_source::xoshiro,
                              hdc::randomness_source::lfsr}) {
        hdc::baseline_config cfg;
        cfg.dim = 1000;
        cfg.levels = 16;
        cfg.source = source;
        const data::image_shape shape{8, 6, 1};
        const hdc::baseline_encoder stored(cfg, shape);
        hdc::baseline_config rcfg = cfg;
        rcfg.bank = bank_mode::rematerialize;
        const hdc::baseline_encoder remat(rcfg, shape);
        EXPECT_GT(stored.memory_bytes(), remat.memory_bytes());

        for (int trial = 0; trial < 6; ++trial) {
            const auto image = random_image(shape.pixels(), rng);
            std::vector<std::int32_t> a(cfg.dim);
            std::vector<std::int32_t> b(cfg.dim);
            stored.encode(image, a);
            remat.encode(image, b);
            EXPECT_EQ(a, b);
            EXPECT_EQ(stored.encode_sign(image), remat.encode_sign(image));
        }
    }
}

TEST(RematModel, SaveLoadRoundTripKeepsModeAndPredictions) {
    const auto train = data::make_synthetic_digits(80, 41);
    core::uhd_config cfg;
    cfg.dim = 256;
    cfg.bank = bank_mode::rematerialize;
    const auto model = core::uhd_model::train(cfg, train, hdc::train_mode::raw_sums);
    std::stringstream buffer;
    model.save(buffer);
    const auto loaded = core::uhd_model::load(buffer);
    EXPECT_EQ(loaded.encoder().config().bank, bank_mode::rematerialize);
    for (std::size_t i = 0; i < 20; ++i) {
        EXPECT_EQ(loaded.predict(train.image(i)), model.predict(train.image(i)));
    }
}

TEST(RematModel, StoredBankEraV1FileLoadsAsStored) {
    const auto train = data::make_synthetic_digits(60, 43);
    core::uhd_config cfg;
    cfg.dim = 256;
    const auto model = core::uhd_model::train(cfg, train, hdc::train_mode::raw_sums);
    std::stringstream buffer;
    model.save(buffer);
    std::string bytes = buffer.str();

    // Rewrite the v4 stream as its v1 (stored-bank era) equivalent: stamp
    // version 1 into the header and drop the bank-mode, scramble and policy
    // words. v1 layout = 8-byte header, dim u64, quant u32, seed u64, shape
    // 3 x u64, classes u64, train u32, query u32 — the three words v2 and
    // v4 added sit at offsets 68-79. A v1 parse ignores the v4 trailer.
    const std::uint32_t v1 = 1;
    bytes[4] = static_cast<char>(v1 & 0xff);
    bytes[5] = bytes[6] = bytes[7] = 0;
    bytes.erase(68, 12);

    std::stringstream v1_stream(bytes);
    const auto loaded = core::uhd_model::load(v1_stream);
    EXPECT_EQ(loaded.encoder().config().bank, bank_mode::stored);
    for (std::size_t i = 0; i < 20; ++i) {
        EXPECT_EQ(loaded.predict(train.image(i)), model.predict(train.image(i)));
    }
}

} // namespace

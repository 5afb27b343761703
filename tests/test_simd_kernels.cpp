// Equivalence tests for the word-parallel engine: every kernel of every
// admissible backend in the uhd::kernels registry against its pinned
// scalar reference (the bit-plane count and its finishers against an
// in-test decode of the documented layout as well), the optimized encoder paths against the scalar oracle
// over randomized images x configurations, batch encoding against
// per-image encoding, and thread-count determinism of the batch
// classifier APIs.
//
// The whole suite runs under any UHD_BACKEND value (tests/CMakeLists.txt
// registers forced-backend variants), and the per-backend loops below
// additionally cover every admissible backend inside a single process, so
// a backend can't dodge the oracle by not being the active one.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "uhd/common/cpu_features.hpp"
#include "uhd/common/kernels.hpp"
#include "uhd/common/rng.hpp"
#include "uhd/common/simd.hpp"
#include "uhd/common/thread_pool.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/classifier.hpp"
#include "uhd/lowdisc/sobol.hpp"

namespace {

using namespace uhd;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint8_t max_value,
                                       xoshiro256ss& rng) {
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) {
        b = static_cast<std::uint8_t>(rng.next() % (static_cast<unsigned>(max_value) + 1));
    }
    return out;
}

// All kernel-equivalence loops iterate over kernels::admissible_backends()
// (always at least scalar and swar), so on AVX2 hardware the AVX2 table is
// oracle-checked even when the active backend is something else.
using kernels::admissible_backends;

// A random bit-plane bank in the documented layout, an ascending
// active-pixel list over it and a base count: the kernel inputs. The
// per-(pixel, dimension) counts read back through that layout are the
// in-test oracle the kernel references are themselves checked against.
struct plane_bank {
    std::size_t npix;
    std::size_t m;
    std::size_t words;
    std::vector<std::uint64_t> planes;
    std::vector<kernels::active_pixel> active;
    std::vector<std::uint64_t> base; // count_planes(npix) counter planes
};

std::size_t n_planes_of(const plane_bank& bank) {
    return kernels::count_planes(bank.npix);
}

/// Slice per-dimension counts into `n_planes` bit-sliced counter planes.
std::vector<std::uint64_t> encode_counts(const std::vector<std::uint32_t>& count,
                                         std::size_t n_planes, std::size_t words) {
    std::vector<std::uint64_t> planes(n_planes * words, 0);
    for (std::size_t d = 0; d < count.size(); ++d) {
        for (std::size_t j = 0; j < n_planes; ++j) {
            planes[j * words + d / 64] |= static_cast<std::uint64_t>((count[d] >> j) & 1u)
                                          << (d % 64);
        }
    }
    return planes;
}

/// `n_active` distinct pixels of `npix`, ascending, with random levels
/// below 2^m.
std::vector<kernels::active_pixel> random_active_list(std::size_t npix, std::size_t m,
                                                      std::size_t n_active,
                                                      xoshiro256ss& rng) {
    std::vector<std::uint32_t> pixels(npix);
    for (std::size_t p = 0; p < npix; ++p) pixels[p] = static_cast<std::uint32_t>(p);
    for (std::size_t i = 0; i < n_active; ++i) { // partial Fisher-Yates
        std::swap(pixels[i], pixels[i + rng.next() % (npix - i)]);
    }
    std::sort(pixels.begin(), pixels.begin() + static_cast<std::ptrdiff_t>(n_active));
    std::vector<kernels::active_pixel> active(n_active);
    for (std::size_t i = 0; i < n_active; ++i) {
        active[i] = {pixels[i],
                     static_cast<std::uint32_t>(rng.next() % (std::size_t{1} << m))};
    }
    return active;
}

/// Random planes, a random ascending list of `n_active` pixels, and base
/// counts in [0, npix - n_active] — so every count fits the counter planes.
plane_bank random_plane_bank(std::size_t npix, std::size_t m, std::size_t words,
                             std::size_t n_active, xoshiro256ss& rng) {
    plane_bank bank{npix, m, words, std::vector<std::uint64_t>(npix * m * words),
                    random_active_list(npix, m, n_active, rng), {}};
    for (auto& w : bank.planes) w = rng.next();
    std::vector<std::uint32_t> base(words * 64);
    for (auto& v : base) {
        v = static_cast<std::uint32_t>(rng.next() % (npix - n_active + 1));
    }
    bank.base = encode_counts(base, n_planes_of(bank), words);
    return bank;
}

std::vector<std::uint32_t> decode_counts(const std::vector<std::uint64_t>& counters,
                                         std::size_t n_planes, std::size_t words) {
    std::vector<std::uint32_t> count(words * 64, 0);
    for (std::size_t d = 0; d < count.size(); ++d) {
        for (std::size_t j = 0; j < n_planes; ++j) {
            count[d] |= static_cast<std::uint32_t>(
                            (counters[j * words + d / 64] >> (d % 64)) & 1u)
                        << j;
        }
    }
    return count;
}

/// Stored value T_p[d] read through plane_word_offset.
unsigned stored_value(const plane_bank& bank, std::size_t p, std::size_t d) {
    unsigned value = 0;
    for (std::size_t k = 0; k < bank.m; ++k) {
        const std::uint64_t word = bank.planes[kernels::plane_word_offset(
            bank.npix, bank.m, bank.words, p, k, d / 64)];
        value |= static_cast<unsigned>((word >> (d % 64)) & 1u) << k;
    }
    return value;
}

/// base[d] + #{listed p : level >= T_p[d]}, one (pixel, dimension) at a time.
std::vector<std::uint32_t> naive_counts(const plane_bank& bank) {
    std::vector<std::uint32_t> count = decode_counts(bank.base, n_planes_of(bank),
                                                     bank.words);
    for (std::size_t d = 0; d < count.size(); ++d) {
        for (const kernels::active_pixel& a : bank.active) {
            if (a.level >= stored_value(bank, a.pixel, d)) ++count[d];
        }
    }
    return count;
}

/// The kernel's counter planes for `bank` through `table`.
std::vector<std::uint64_t> count_with(const kernels::kernel_table& table,
                                      const plane_bank& bank) {
    std::vector<std::uint64_t> got(n_planes_of(bank) * bank.words, ~std::uint64_t{0});
    table.geq_plane_count(bank.active.data(), bank.active.size(), bank.npix,
                          bank.planes.data(), bank.m, bank.words, bank.base.data(),
                          got.data());
    return got;
}

TEST(SimdKernels, PlaneLayoutCoversTheBankExactlyOnce) {
    // Every (pixel, plane, word) maps to a distinct offset inside the
    // npix * m * words bank, ragged last chunk included.
    for (const std::size_t words : {1u, 7u, 8u, 9u, 17u, 24u}) {
        for (const std::size_t m : {1u, 4u, 8u}) {
            const std::size_t npix = 5;
            std::vector<int> hits(npix * m * words, 0);
            for (std::size_t p = 0; p < npix; ++p) {
                for (std::size_t k = 0; k < m; ++k) {
                    for (std::size_t w = 0; w < words; ++w) {
                        const std::size_t at =
                            kernels::plane_word_offset(npix, m, words, p, k, w);
                        ASSERT_LT(at, hits.size());
                        ++hits[at];
                    }
                }
            }
            EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                                    [](int h) { return h == 1; }))
                << "words=" << words << " m=" << m;
        }
    }
}

TEST(SimdKernels, PlaneBankChunksAreStandaloneBanks) {
    // The stored encode counts a batch one bank chunk at a time, handing
    // each chunk to geq_plane_count as a bank of its own `width` words.
    // That is exact because word w of plane k of pixel p of the chunk at
    // word `first` sits where a standalone `width`-word bank puts it,
    // shifted by first * npix * m — ragged last chunks included.
    std::size_t mismatches = 0;
    for (std::size_t npix = 1; npix <= 300; ++npix) {
        for (std::size_t m = 1; m <= 8; ++m) {
            for (std::size_t words = 1; words <= 20; ++words) {
                for (std::size_t first = 0; first < words;
                     first += kernels::plane_chunk_words) {
                    const std::size_t width =
                        std::min(kernels::plane_chunk_words, words - first);
                    for (std::size_t p = 0; p < npix; ++p) {
                        for (std::size_t k = 0; k < m; ++k) {
                            for (std::size_t w = 0; w < width; ++w) {
                                const std::size_t in_bank = kernels::plane_word_offset(
                                    npix, m, words, p, k, first + w);
                                const std::size_t in_chunk =
                                    first * npix * m +
                                    kernels::plane_word_offset(npix, m, width, p, k, w);
                                if (in_bank != in_chunk && mismatches++ == 0) {
                                    ADD_FAILURE() << "npix=" << npix << " m=" << m
                                                  << " words=" << words << " p=" << p
                                                  << " k=" << k << " w=" << first + w;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);

    // So one whole-bank count equals the per-chunk counts, with the base
    // and the counters sliced to each chunk, on every backend.
    xoshiro256ss rng(72);
    for (int trial = 0; trial < 48; ++trial) {
        const std::size_t npix = 1 + rng.next() % 300;
        const std::size_t n_active = trial % 6 == 0   ? 0
                                     : trial % 6 == 1 ? npix
                                                      : rng.next() % (npix + 1);
        const std::size_t words = 1 + rng.next() % 20;
        const std::size_t m = 1 + static_cast<std::size_t>(trial % 8);
        const plane_bank bank = random_plane_bank(npix, m, words, n_active, rng);
        const std::size_t n_planes = n_planes_of(bank);
        for (const kernels::kernel_table* backend : admissible_backends()) {
            const std::vector<std::uint64_t> whole = count_with(*backend, bank);
            for (std::size_t first = 0; first < words; first += kernels::plane_chunk_words) {
                const std::size_t width = std::min(kernels::plane_chunk_words, words - first);
                std::vector<std::uint64_t> base(n_planes * width);
                for (std::size_t j = 0; j < n_planes; ++j) {
                    for (std::size_t w = 0; w < width; ++w) {
                        base[j * width + w] = bank.base[j * words + first + w];
                    }
                }
                std::vector<std::uint64_t> chunk(n_planes * width, ~std::uint64_t{0});
                backend->geq_plane_count(bank.active.data(), n_active, npix,
                                         bank.planes.data() + first * npix * m, m, width,
                                         base.data(), chunk.data());
                for (std::size_t j = 0; j < n_planes; ++j) {
                    for (std::size_t w = 0; w < width; ++w) {
                        ASSERT_EQ(chunk[j * width + w], whole[j * words + first + w])
                            << "backend=" << backend->name << " npix=" << npix
                            << " n_active=" << n_active << " m=" << m << " words=" << words
                            << " chunk at " << first << " plane " << j << " word " << w;
                    }
                }
            }
        }
    }
}

TEST(SimdKernels, PlaneCountEveryBackendMatchesReference) {
    xoshiro256ss rng(66);
    for (int trial = 0; trial < 60; ++trial) {
        // Pixel counts cross the 16-pixel carry-save groups with every
        // remainder; the list is a random ascending subset of any length
        // (empty and full included); word counts cover ragged 8-word
        // chunks and both 4-word halves; m covers every plane count from
        // 1 to 8.
        const std::size_t npix = 1 + rng.next() % 300;
        const std::size_t n_active = trial % 10 == 0   ? 0
                                     : trial % 10 == 1 ? npix
                                                       : rng.next() % (npix + 1);
        const std::size_t words = 1 + rng.next() % 20;
        const std::size_t m = 1 + static_cast<std::size_t>(trial % 8);
        const plane_bank bank = random_plane_bank(npix, m, words, n_active, rng);
        const std::size_t n_planes = n_planes_of(bank);
        const std::vector<std::uint32_t> expected = naive_counts(bank);

        std::vector<std::uint64_t> reference(n_planes * words, ~std::uint64_t{0});
        simd::geq_plane_count_reference(bank.active.data(), n_active, npix,
                                        bank.planes.data(), m, words, bank.base.data(),
                                        reference.data());
        ASSERT_EQ(decode_counts(reference, n_planes, words), expected)
            << "npix=" << npix << " n_active=" << n_active << " m=" << m
            << " words=" << words;

        std::vector<std::uint64_t> swar(n_planes * words, ~std::uint64_t{0});
        simd::geq_plane_count_swar(bank.active.data(), n_active, npix, bank.planes.data(),
                                   m, words, bank.base.data(), swar.data());
        EXPECT_EQ(swar, reference) << "swar body";

        for (const kernels::kernel_table* backend : admissible_backends()) {
            EXPECT_EQ(count_with(*backend, bank), reference)
                << "backend=" << backend->name << " npix=" << npix
                << " n_active=" << n_active << " m=" << m << " words=" << words;
        }

        std::vector<std::uint64_t> dispatched(n_planes * words, ~std::uint64_t{0});
        kernels::geq_plane_count(bank.active.data(), n_active, npix, bank.planes.data(),
                                 m, words, bank.base.data(), dispatched.data());
        EXPECT_EQ(dispatched, reference);
    }
}

TEST(SimdKernels, PlaneCountEmptyListYieldsTheBaseOnEveryBackend) {
    // No listed pixel: the counters are the base, bit for bit, for base
    // values across [0, npix] (npix itself in the first dimensions), on
    // both sides of the four Harley-Seal planes.
    xoshiro256ss rng(70);
    for (const std::size_t npix : {1u, 5u, 15u, 16u, 17u, 300u, 784u}) {
        for (const std::size_t words : {1u, 9u, 16u}) {
            plane_bank bank = random_plane_bank(npix, 4, words, 0, rng);
            std::vector<std::uint32_t> base = decode_counts(bank.base, n_planes_of(bank),
                                                            words);
            std::fill_n(base.begin(), 3, static_cast<std::uint32_t>(npix));
            bank.base = encode_counts(base, n_planes_of(bank), words);
            for (const kernels::kernel_table* backend : admissible_backends()) {
                EXPECT_EQ(count_with(*backend, bank), bank.base)
                    << "backend=" << backend->name << " npix=" << npix
                    << " words=" << words;
            }
        }
    }
}

TEST(SimdKernels, PlaneCountFullListWithZeroBaseIsTheDenseCount) {
    // Every pixel listed on a zero base: #{p : level_p >= T_p[d]} over the
    // whole bank, the dense count of the kernel's former contract.
    xoshiro256ss rng(71);
    for (const std::size_t npix : {1u, 16u, 33u, 784u}) {
        for (const std::size_t m : {1u, 4u, 8u}) {
            const std::size_t words = 1 + rng.next() % 17;
            plane_bank bank = random_plane_bank(npix, m, words, npix, rng);
            std::fill(bank.base.begin(), bank.base.end(), 0);
            std::vector<std::uint32_t> dense(words * 64, 0);
            for (std::size_t d = 0; d < dense.size(); ++d) {
                for (std::size_t p = 0; p < npix; ++p) {
                    ASSERT_EQ(bank.active[p].pixel, p);
                    if (bank.active[p].level >= stored_value(bank, p, d)) ++dense[d];
                }
            }
            for (const kernels::kernel_table* backend : admissible_backends()) {
                EXPECT_EQ(decode_counts(count_with(*backend, bank), n_planes_of(bank),
                                        words),
                          dense)
                    << "backend=" << backend->name << " npix=" << npix << " m=" << m;
            }
        }
    }
}

TEST(SimdKernels, PlaneCountExtremesOnEveryBackend) {
    // All-zero planes (every stored value 0: every listed pixel counts) and
    // all-one planes (value 2^m - 1: only level 2^m - 1 counts), at a
    // pixel count whose count needs the top counter plane.
    xoshiro256ss rng(67);
    const std::size_t npix = 511;
    const std::size_t words = 9;
    for (const std::size_t m : {1u, 8u}) {
        for (const std::uint64_t fill : {std::uint64_t{0}, ~std::uint64_t{0}}) {
            for (const std::size_t n_active : {npix, std::size_t{200}}) {
                plane_bank bank = random_plane_bank(npix, m, words, n_active, rng);
                std::fill(bank.planes.begin(), bank.planes.end(), fill);
                const std::vector<std::uint32_t> expected = naive_counts(bank);
                for (const kernels::kernel_table* backend : admissible_backends()) {
                    EXPECT_EQ(decode_counts(count_with(*backend, bank), n_planes_of(bank),
                                            words),
                              expected)
                        << "backend=" << backend->name << " m=" << m << " fill=" << fill
                        << " n_active=" << n_active;
                }
            }
        }
    }
}

TEST(SimdKernels, PlaneCountBeyond65535PixelsOnEveryBackend) {
    // 70000 pixels need 17 counter planes: past any 16-bit lane. The full
    // list on a zero base, and a 40000-pixel list on a base up to the
    // remaining 30000.
    xoshiro256ss rng(68);
    const std::size_t npix = 70000;
    const std::size_t words = 1;
    const std::size_t m = 4;
    for (const std::size_t n_active : {npix, std::size_t{40000}}) {
        plane_bank bank = random_plane_bank(npix, m, words, n_active, rng);
        if (n_active == npix) std::fill(bank.base.begin(), bank.base.end(), 0);
        ASSERT_EQ(n_planes_of(bank), 17u);
        const std::vector<std::uint32_t> expected = naive_counts(bank);
        for (const kernels::kernel_table* backend : admissible_backends()) {
            EXPECT_EQ(decode_counts(count_with(*backend, bank), n_planes_of(bank), words),
                      expected)
                << "backend=" << backend->name << " n_active=" << n_active;
        }
    }
}

TEST(SimdKernels, PlaneCountFinishersMatchTheCentredCount) {
    xoshiro256ss rng(69);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t words = 1 + rng.next() % 20;
        const std::size_t n = words * 64 - rng.next() % 64; // ragged last word
        const std::size_t n_planes = 1 + rng.next() % 20;
        std::vector<std::uint64_t> counters(n_planes * words);
        for (auto& w : counters) w = rng.next();
        const std::vector<std::uint32_t> count = decode_counts(counters, n_planes, words);
        // tau2 around the counts' doubled range and past both ends, odd
        // and even.
        const auto max_count =
            static_cast<std::int64_t>((std::uint64_t{1} << n_planes) - 1);
        const auto span = static_cast<std::uint64_t>(4 * max_count + 8);
        const auto tau2 = static_cast<std::int32_t>(
            static_cast<std::int64_t>(rng.next() % span) - max_count - 2);

        std::vector<std::int32_t> expected(n);
        std::vector<std::uint64_t> expected_sign(kernels::sign_words(n), 0);
        for (std::size_t d = 0; d < n; ++d) {
            expected[d] = 2 * static_cast<std::int32_t>(count[d]) - tau2;
            if (expected[d] < 0) expected_sign[d / 64] |= std::uint64_t{1} << (d % 64);
        }

        // The int32 finisher adds into its row: a row of 7s ends at 7 plus
        // the centred count.
        std::vector<std::int32_t> added(n);
        for (std::size_t d = 0; d < n; ++d) added[d] = 7 + expected[d];
        std::vector<std::int32_t> reference(n, 7);
        simd::plane_count_center_reference(counters.data(), n_planes, words, n, tau2,
                                           reference.data());
        ASSERT_EQ(reference, added) << "n_planes=" << n_planes << " tau2=" << tau2;
        std::vector<std::int32_t> portable(n, 7);
        simd::plane_count_center_portable(counters.data(), n_planes, words, n, tau2,
                                          portable.data());
        EXPECT_EQ(portable, added);
        for (const kernels::kernel_table* backend : admissible_backends()) {
            std::vector<std::int32_t> got(n + 1, 7); // the slot past n stays put
            backend->plane_count_center(counters.data(), n_planes, words, n, tau2,
                                        got.data());
            EXPECT_EQ(got.back(), 7) << "backend=" << backend->name << " wrote past n";
            got.pop_back();
            EXPECT_EQ(got, added) << "backend=" << backend->name;
        }

        std::vector<std::uint64_t> sign(kernels::sign_words(n), ~std::uint64_t{0});
        simd::plane_count_sign(counters.data(), n_planes, words, n, tau2, sign.data());
        EXPECT_EQ(sign, expected_sign) << "n_planes=" << n_planes << " tau2=" << tau2;
    }
}

TEST(SimdKernels, PlaneCountCenterAddsIntoARowOnEveryBackend) {
    // The trainer's rows are class accumulators that already hold earlier
    // images' sums, so the int32 finisher must add into a row of arbitrary
    // values, not overwrite it. Lengths: one lane, the 8- and 16-lane
    // steps' ragged tails on both sides, two ragged words and a full
    // 17-word row; 10 and 11 counter planes (784 and 1088 pixels).
    xoshiro256ss rng(70);
    for (const std::size_t n : {1u, 15u, 16u, 17u, 1000u, 1088u}) {
        for (const std::size_t n_planes : {10u, 11u}) {
            const std::size_t words = kernels::sign_words(n);
            std::vector<std::uint64_t> counters(n_planes * words);
            for (auto& w : counters) w = rng.next();
            const std::vector<std::uint32_t> count = decode_counts(counters, n_planes, words);
            const auto tau2 =
                static_cast<std::int32_t>(rng.next() % (std::uint64_t{2} << n_planes));
            std::vector<std::int32_t> start(n + 1); // the slot past n stays put
            for (auto& v : start) {
                v = static_cast<std::int32_t>(rng.next() % 200000001) - 100000000;
            }
            std::vector<std::int32_t> expected = start;
            for (std::size_t d = 0; d < n; ++d) {
                expected[d] += 2 * static_cast<std::int32_t>(count[d]) - tau2;
            }
            std::vector<std::int32_t> reference = start;
            simd::plane_count_center_reference(counters.data(), n_planes, words, n, tau2,
                                               reference.data());
            ASSERT_EQ(reference, expected) << "n=" << n << " n_planes=" << n_planes;
            std::vector<std::int32_t> portable = start;
            simd::plane_count_center_portable(counters.data(), n_planes, words, n, tau2,
                                              portable.data());
            EXPECT_EQ(portable, reference) << "n=" << n << " n_planes=" << n_planes;
            for (const kernels::kernel_table* backend : admissible_backends()) {
                std::vector<std::int32_t> got = start;
                backend->plane_count_center(counters.data(), n_planes, words, n, tau2,
                                            got.data());
                EXPECT_EQ(got, reference)
                    << "backend=" << backend->name << " n=" << n << " n_planes=" << n_planes;
            }
        }
    }
}

// --- Sobol bit-plane bank build ------------------------------------------

/// What sobol_plane_row writes for one pixel of a bank.
struct plane_row_build {
    std::vector<std::uint64_t> planes;
    std::vector<std::uint32_t> level_counts;
    std::vector<std::uint64_t> zero_words;
};

/// Word written into every slot before a build: a slot that still holds it
/// afterwards was never written.
constexpr std::uint64_t poison = 0x5a5a'a5a5'5a5a'a5a5ULL;

/// Run one backend's bank build for `pixel` of an npix-pixel bank whose
/// every word, count and zero word starts poisoned.
plane_row_build build_plane_row(const kernels::kernel_table& table,
                                const std::uint32_t* directions, std::uint32_t shift,
                                unsigned levels, std::size_t dim, std::size_t npix,
                                std::size_t pixel) {
    const std::size_t words = kernels::sign_words(dim);
    const std::size_t m = static_cast<std::size_t>(std::bit_width(levels - 1));
    plane_row_build out{std::vector<std::uint64_t>(npix * m * words, poison),
                        std::vector<std::uint32_t>(levels, 0xdeadbeefu),
                        std::vector<std::uint64_t>(words, poison)};
    table.sobol_plane_row(directions, shift, levels, dim, npix, pixel, out.planes.data(),
                          out.level_counts.data(), out.zero_words.data());
    return out;
}

TEST(SimdKernels, SobolPlaneRowEveryBackendMatchesReference) {
    // Every admissible backend's bank build against the scalar reference,
    // and the reference against thresholds generated one at a time by
    // ld::sobol_sequence and ld::quantize_fraction: the pixel's plane
    // words read back through the bank layout (T = (S - 1) mod 2^m,
    // all-ones past dim), its level counts and its zero words. D covers one
    // word, ragged words and chunks and a bank past L2; the levels cover
    // m = 1, 2, 4, 7 and 8 with and without unused T values; direction rows
    // are standard Sobol rows and random words (no net structure a body
    // could lean on); shifts are 0 and random. The pixel sits between two
    // others of a poisoned bank, whose words must stay untouched.
    xoshiro256ss rng(417);
    const ld::sobol_directions standard = ld::sobol_directions::standard(64);
    const std::size_t npix = 3;
    const std::size_t pixel = 1;
    for (const std::size_t dim : {64u, 65u, 1000u, 1088u, 8192u}) {
        for (const unsigned levels : {2u, 3u, 16u, 97u, 256u}) {
            for (int variant = 0; variant < 4; ++variant) {
                std::array<std::uint32_t, ld::sobol_bits> directions{};
                if (variant < 2) {
                    const auto row = standard.direction_numbers(1 + rng.next() % 63);
                    std::copy(row.begin(), row.end(), directions.begin());
                } else {
                    for (auto& v : directions) v = static_cast<std::uint32_t>(rng.next());
                }
                const std::uint32_t shift =
                    variant % 2 == 0 ? 0u : static_cast<std::uint32_t>(rng.next());
                const std::string where = "dim=" + std::to_string(dim) +
                                          " levels=" + std::to_string(levels) +
                                          " variant=" + std::to_string(variant);

                const std::size_t words = kernels::sign_words(dim);
                const std::size_t m = static_cast<std::size_t>(std::bit_width(levels - 1));
                ld::sobol_sequence seq(directions);
                std::vector<std::uint8_t> thresholds(dim);
                std::vector<std::uint32_t> counts(levels, 0);
                std::vector<std::uint64_t> zeros(words, 0);
                for (std::size_t d = 0; d < dim; ++d) {
                    thresholds[d] = ld::quantize_fraction(seq.next_fraction() ^ shift, levels);
                    ++counts[thresholds[d]];
                    if (thresholds[d] == 0) zeros[d / 64] |= std::uint64_t{1} << (d % 64);
                }

                const plane_row_build reference = build_plane_row(
                    *kernels::find_backend("scalar"), directions.data(), shift, levels, dim,
                    npix, pixel);
                ASSERT_EQ(reference.level_counts, counts) << where;
                ASSERT_EQ(reference.zero_words, zeros) << where;
                for (std::size_t p = 0; p < npix; ++p) {
                    for (std::size_t k = 0; k < m; ++k) {
                        for (std::size_t w = 0; w < words; ++w) {
                            const std::uint64_t word =
                                reference.planes[kernels::plane_word_offset(npix, m, words, p,
                                                                            k, w)];
                            if (p != pixel) {
                                ASSERT_EQ(word, poison) << where << " p=" << p;
                                continue;
                            }
                            for (std::size_t b = 0; b < 64; ++b) {
                                const std::size_t d = 64 * w + b;
                                const unsigned t =
                                    d < dim ? (thresholds[d] - 1u) & ((1u << m) - 1) : ~0u;
                                ASSERT_EQ((word >> b) & 1u, (t >> k) & 1u)
                                    << where << " d=" << d << " k=" << k;
                            }
                        }
                    }
                }

                for (const kernels::kernel_table* backend : admissible_backends()) {
                    const plane_row_build got = build_plane_row(
                        *backend, directions.data(), shift, levels, dim, npix, pixel);
                    EXPECT_EQ(got.planes, reference.planes)
                        << "backend=" << backend->name << " " << where;
                    EXPECT_EQ(got.level_counts, reference.level_counts)
                        << "backend=" << backend->name << " " << where;
                    EXPECT_EQ(got.zero_words, reference.zero_words)
                        << "backend=" << backend->name << " " << where;
                }
            }
        }
    }
}

TEST(SimdKernels, TileFlushAddsIntoAccumulator) {
    const std::vector<std::uint16_t> tile = {0, 1, 65535, 300};
    std::vector<std::int32_t> acc = {5, -5, 1, 0};
    simd::add_u16_to_i32(tile.data(), tile.size(), acc.data());
    EXPECT_EQ(acc, (std::vector<std::int32_t>{5, -4, 65536, 300}));
}

TEST(SimdKernels, XorPopcountReductionMatchesNaive) {
    // The portable per-pair reduction the block kernels' ragged edges use.
    xoshiro256ss rng(44);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 1 + rng.next() % 9;
        std::vector<std::uint64_t> a(n);
        std::vector<std::uint64_t> b(n);
        for (auto& w : a) w = rng.next();
        for (auto& w : b) w = rng.next();
        std::uint64_t xor_pop = 0;
        for (std::size_t i = 0; i < n; ++i) {
            xor_pop += std::popcount(a[i] ^ b[i]);
        }
        EXPECT_EQ(simd::xor_popcount_words(a.data(), b.data(), n), xor_pop);
    }
}

TEST(SimdKernels, SignBinarizeEveryBackendMatchesReference) {
    xoshiro256ss rng(88);
    for (int trial = 0; trial < 200; ++trial) {
        // Dims straddle word boundaries: 1..320 covers non-multiples of 64,
        // exact multiples, and the single-word case.
        const std::size_t n = 1 + rng.next() % 320;
        std::vector<std::int32_t> values(n);
        for (auto& v : values) {
            // Mix of negative, zero, and positive (zero must map to +1 /
            // bit 0, the accumulator::sign tie rule).
            v = static_cast<std::int32_t>(rng.next() % 7) - 3;
        }
        std::vector<std::uint64_t> reference(kernels::sign_words(n), ~std::uint64_t{0});
        std::vector<std::uint64_t> swar(kernels::sign_words(n), ~std::uint64_t{0});
        simd::sign_binarize_reference(values.data(), n, reference.data());
        simd::sign_binarize_swar(values.data(), n, swar.data());
        EXPECT_EQ(reference, swar) << "n=" << n;

        for (const kernels::kernel_table* backend : admissible_backends()) {
            std::vector<std::uint64_t> got(kernels::sign_words(n), ~std::uint64_t{0});
            backend->sign_binarize(values.data(), n, got.data());
            EXPECT_EQ(reference, got) << "backend=" << backend->name << " n=" << n;

            // Tail bits beyond n must be zero (the bitstream invariant).
            if (n % 64 != 0) {
                const std::uint64_t tail_mask = ~std::uint64_t{0} << (n % 64);
                EXPECT_EQ(got.back() & tail_mask, 0u) << "backend=" << backend->name;
            }
        }

        std::vector<std::uint64_t> dispatched(kernels::sign_words(n), ~std::uint64_t{0});
        kernels::sign_binarize(values.data(), n, dispatched.data());
        EXPECT_EQ(reference, dispatched) << "n=" << n;
    }
}

TEST(SimdKernels, SignBinarizeExtremeValues) {
    const std::vector<std::int32_t> values = {INT32_MIN, INT32_MAX, 0, -1, 1,
                                              INT32_MIN + 1, INT32_MAX - 1};
    std::vector<std::uint64_t> reference(1);
    simd::sign_binarize_reference(values.data(), values.size(), reference.data());
    EXPECT_EQ(reference[0], 0b0101001u); // bits set where value < 0
    for (const kernels::kernel_table* backend : admissible_backends()) {
        std::vector<std::uint64_t> got(1);
        backend->sign_binarize(values.data(), values.size(), got.data());
        EXPECT_EQ(reference, got) << "backend=" << backend->name;
    }
}

TEST(SimdKernels, BlockedDotKernelsEveryBackendBitIdentical) {
    xoshiro256ss rng(122);
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t n = 1 + rng.next() % 500;
        std::vector<std::int32_t> a(n);
        std::vector<std::int32_t> b(n);
        for (auto& v : a) v = static_cast<std::int32_t>(rng.next() % 20001) - 10000;
        for (auto& v : b) v = static_cast<std::int32_t>(rng.next() % 20001) - 10000;
        double naive_dot = 0.0;
        double naive_sq = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            naive_dot += static_cast<double>(a[i]) * static_cast<double>(b[i]);
            naive_sq += static_cast<double>(a[i]) * static_cast<double>(a[i]);
        }
        // Lane-split accumulation reorders the rounding, so compare to the
        // naive loop with a relative tolerance...
        const double portable_dot = simd::dot_i32(a.data(), b.data(), n);
        const double portable_sq = simd::sum_squares_i32(a.data(), n);
        const double scale = std::max(1.0, std::abs(naive_dot));
        EXPECT_NEAR(portable_dot, naive_dot, 1e-9 * scale);
        EXPECT_NEAR(portable_sq, naive_sq, 1e-9 * std::max(1.0, naive_sq));
        // ...but every backend runs the identical fixed-lane algorithm, so
        // across backends the doubles must agree bit-for-bit.
        for (const kernels::kernel_table* backend : admissible_backends()) {
            EXPECT_EQ(backend->dot_i32(a.data(), b.data(), n), portable_dot)
                << "backend=" << backend->name;
            EXPECT_EQ(backend->sum_squares_i32(a.data(), n), portable_sq)
                << "backend=" << backend->name;
        }
    }
}

TEST(SimdKernels, MaskedSumMatchesNaive) {
    xoshiro256ss rng(55);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 1 + rng.next() % 300;
        std::vector<std::uint64_t> mask((n + 63) / 64, 0);
        std::vector<std::int32_t> values(n);
        std::int64_t expected = 0;
        for (std::size_t i = 0; i < n; ++i) {
            values[i] = static_cast<std::int32_t>(rng.next()) % 1000;
            if (rng.next() % 2 == 0) {
                mask[i / 64] |= std::uint64_t{1} << (i % 64);
                expected += values[i];
            }
        }
        EXPECT_EQ(simd::masked_sum_i32(mask.data(), values.data(), n), expected);
    }
}

// --- encoder equivalence over randomized configurations -------------------

struct encoder_case {
    core::uhd_config cfg;
    data::image_shape shape;
};

encoder_case random_case(xoshiro256ss& rng) {
    encoder_case c;
    // Dims cover ragged words and ragged 8-word bank chunks (1000, 1088)
    // beside the serving D = 1024; levels cover every plane count M from 1
    // (xi = 2) to 8 (xi = 256), and xi = 10 leaves codes of M = 4 unused.
    const std::size_t dims[] = {64, 128, 192, 256, 1000, 1024, 1088};
    const unsigned levels[] = {2, 3, 4, 8, 10, 16, 32, 256};
    c.cfg.dim = dims[rng.next() % std::size(dims)];
    c.cfg.quant_levels = levels[rng.next() % std::size(levels)];
    c.cfg.scramble = rng.next() % 2 == 0;
    c.cfg.policy = rng.next() % 2 == 0 ? core::binarize_policy::mean_intensity
                                       : core::binarize_policy::half_inputs;
    c.cfg.sobol_seed = 1 + rng.next() % 1000;
    const std::size_t side = 4 + rng.next() % 25; // 4x4 .. 28x28 images
    c.shape = {side, side, 1};
    return c;
}

// Every fast path against the scalar oracle on one image: the int32
// encode, and the packed encodes against sign_binarize of it.
void expect_matches_oracle(const core::uhd_encoder& enc,
                           const std::vector<std::uint8_t>& image,
                           const std::string& where) {
    std::vector<std::int32_t> fast(enc.dim());
    std::vector<std::int32_t> oracle(enc.dim());
    enc.encode(image, fast);
    enc.encode_scalar(image, oracle);
    ASSERT_EQ(fast, oracle) << where;

    std::vector<std::uint64_t> signs(kernels::sign_words(enc.dim()));
    simd::sign_binarize_reference(oracle.data(), oracle.size(), signs.data());
    std::vector<std::uint64_t> packed(signs.size(), ~std::uint64_t{0});
    enc.encode_sign_batch(image, 1, packed);
    ASSERT_EQ(packed, signs) << where;
    const auto hv = enc.encode_sign(image);
    ASSERT_TRUE(std::equal(signs.begin(), signs.end(), hv.bits().words().begin()))
        << where;
}

TEST(EncoderEquivalence, WordParallelMatchesScalarOracleAcross100Configs) {
    xoshiro256ss rng(2024);
    for (int config_i = 0; config_i < 100; ++config_i) {
        const encoder_case c = random_case(rng);
        const core::uhd_encoder enc(c.cfg, c.shape);
        for (int image_i = 0; image_i < 3; ++image_i) {
            const auto image = random_bytes(c.shape.pixels(), 255, rng);
            expect_matches_oracle(
                enc, image,
                "config " + std::to_string(config_i) +
                    ": dim=" + std::to_string(c.cfg.dim) +
                    " levels=" + std::to_string(c.cfg.quant_levels) +
                    " side=" + std::to_string(c.shape.rows) +
                    " scramble=" + std::to_string(c.cfg.scramble) +
                    " backend=" + kernels::active().name);
            if (HasFatalFailure()) return;
        }
    }
}

TEST(EncoderEquivalence, LevelZeroEdgeImagesMatchScalarOracle) {
    // The images the level-0 skip treats specially: all pixels at level 0
    // (empty active list: the count is Z0 alone), no pixel at level 0 (full
    // list), all at the top level, a single active pixel, and a digit-like
    // mix. Pixel counts cover the ripple-only count (9 pixels, 4 counter
    // planes), a partial Harley-Seal group (25) and the 784-pixel digits.
    xoshiro256ss rng(2026);
    const std::size_t dims[] = {64, 1000, 1024, 1088};
    const unsigned levels[] = {2, 3, 10, 16, 256};
    const std::size_t sides[] = {3, 5, 28};
    int config_i = 0;
    for (const std::size_t dim : dims) {
        for (const unsigned xi : levels) {
            for (const std::size_t side : sides) {
                core::uhd_config cfg;
                cfg.dim = dim;
                cfg.quant_levels = xi;
                cfg.scramble = config_i % 2 == 0;
                cfg.policy = config_i % 3 == 0 ? core::binarize_policy::half_inputs
                                               : core::binarize_policy::mean_intensity;
                cfg.sobol_seed = 1 + static_cast<std::uint64_t>(config_i);
                ++config_i;
                const data::image_shape shape{side, side, 1};
                const core::uhd_encoder enc(cfg, shape);
                unsigned level1 = 0; // lowest intensity at level >= 1
                while (enc.quantize_intensity(static_cast<std::uint8_t>(level1)) == 0) {
                    ++level1;
                }
                const std::size_t n = shape.pixels();
                const std::string where = "dim=" + std::to_string(dim) +
                                          " levels=" + std::to_string(xi) +
                                          " side=" + std::to_string(side) +
                                          " backend=" + kernels::active().name;

                expect_matches_oracle(enc, std::vector<std::uint8_t>(n, 0),
                                      where + " all-zero");
                expect_matches_oracle(enc, std::vector<std::uint8_t>(n, 255),
                                      where + " all-max");
                std::vector<std::uint8_t> image(n, 0);
                image[rng.next() % n] = static_cast<std::uint8_t>(
                    level1 + rng.next() % (256 - level1));
                expect_matches_oracle(enc, image, where + " single-active");
                for (auto& x : image) {
                    x = static_cast<std::uint8_t>(level1 + rng.next() % (256 - level1));
                }
                expect_matches_oracle(enc, image, where + " no-level-0");
                for (auto& x : image) {
                    x = rng.next() % 2 == 0 ? std::uint8_t{0}
                                            : static_cast<std::uint8_t>(rng.next() % 256);
                }
                expect_matches_oracle(enc, image, where + " half-zero");
                if (HasFatalFailure()) return;
            }
        }
    }
}

TEST(EncoderEquivalence, MoreThan65535PixelsMatchScalarOracle) {
    // 257 x 256 = 65792 pixels: the count needs 17 counter planes.
    core::uhd_config cfg;
    cfg.dim = 64;
    const data::image_shape shape{257, 256, 1};
    const core::uhd_encoder enc(cfg, shape);
    xoshiro256ss rng(2025);
    expect_matches_oracle(enc, random_bytes(shape.pixels(), 255, rng),
                          std::string("65792 pixels, backend=") + kernels::active().name);
}

TEST(EncoderEquivalence, EncodeBatchMatchesPerImageEncode) {
    const core::uhd_config cfg{.dim = 128};
    const data::image_shape shape{6, 6, 1};
    const core::uhd_encoder enc(cfg, shape);
    xoshiro256ss rng(99);

    const std::size_t count = 17;
    std::vector<std::uint8_t> images;
    for (std::size_t i = 0; i < count; ++i) {
        const auto img = random_bytes(shape.pixels(), 255, rng);
        images.insert(images.end(), img.begin(), img.end());
    }

    std::vector<std::int32_t> batched(count * enc.dim());
    enc.encode_batch(images, count, batched);

    for (std::size_t i = 0; i < count; ++i) {
        std::vector<std::int32_t> single(enc.dim());
        enc.encode(std::span<const std::uint8_t>(images).subspan(i * shape.pixels(),
                                                                 shape.pixels()),
                   single);
        const auto slot = std::span<const std::int32_t>(batched)
                              .subspan(i * enc.dim(), enc.dim());
        ASSERT_TRUE(std::equal(single.begin(), single.end(), slot.begin()));
    }

    // Pooled batches are bit-identical regardless of worker count.
    for (const std::size_t threads : {1u, 2u, 4u}) {
        thread_pool pool(threads);
        std::vector<std::int32_t> pooled(count * enc.dim());
        enc.encode_batch(images, count, pooled, &pool);
        ASSERT_EQ(batched, pooled) << "threads=" << threads;
    }
}

TEST(EncoderEquivalence, DatasetImagesBatchMatchesSingleEncodes) {
    const auto ds = data::make_synthetic_digits(12, 5);
    const core::uhd_config cfg{.dim = 128};
    const core::uhd_encoder enc(cfg, ds.shape());

    std::vector<std::int32_t> from_dataset(ds.size() * enc.dim());
    enc.encode_batch(ds.images(0, ds.size()), ds.size(), from_dataset);
    for (std::size_t i = 0; i < ds.size(); ++i) {
        std::vector<std::int32_t> single(enc.dim());
        enc.encode(ds.image(i), single);
        const auto slot = std::span<const std::int32_t>(from_dataset)
                              .subspan(i * enc.dim(), enc.dim());
        ASSERT_TRUE(std::equal(single.begin(), single.end(), slot.begin()));
    }
}

TEST(BatchClassifier, PredictBatchAndEvaluateAreThreadCountInvariant) {
    const auto train = data::make_synthetic_digits(60, 5);
    const auto test = data::make_synthetic_digits(30, 6);
    const core::uhd_config cfg{.dim = 256};
    const core::uhd_encoder enc(cfg, train.shape());
    // Both query modes must be thread-count invariant: integer (blocked dot
    // kernels) and binarized (packed associative-memory engine).
    for (const hdc::query_mode qm :
         {hdc::query_mode::integer, hdc::query_mode::binarized}) {
        hdc::hd_classifier<core::uhd_encoder> clf(enc, train.num_classes(),
                                                  hdc::train_mode::raw_sums, qm);
        clf.fit(train);

        const std::vector<std::size_t> serial = clf.predict_batch(test);
        const double serial_accuracy = clf.evaluate(test);
        for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
            thread_pool pool(threads);
            EXPECT_EQ(clf.predict_batch(test, &pool), serial) << "threads=" << threads;
            data::confusion_matrix serial_matrix(test.num_classes());
            data::confusion_matrix pooled_matrix(test.num_classes());
            EXPECT_DOUBLE_EQ(clf.evaluate(test, &serial_matrix),
                             clf.evaluate(test, &pooled_matrix, &pool));
            for (std::size_t t = 0; t < test.num_classes(); ++t) {
                for (std::size_t p = 0; p < test.num_classes(); ++p) {
                    EXPECT_EQ(serial_matrix.count(t, p), pooled_matrix.count(t, p));
                }
            }
            EXPECT_DOUBLE_EQ(clf.evaluate(test, nullptr, &pool), serial_accuracy);
        }
    }
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
        thread_pool pool(threads);
        for (const std::size_t n : {0u, 1u, 7u, 1000u}) {
            std::vector<int> hits(n, 0);
            pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) ++hits[i];
            });
            EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                                    [](int h) { return h == 1; }))
                << "threads=" << threads << " n=" << n;
        }
    }
}

TEST(ThreadPool, EnvThreadsClampsNegativeAndGarbage) {
    // Regression: UHD_THREADS=-1 used to be cast through size_t, requesting
    // ~2^64 workers. Non-positive or unparsable values must fall back to 0
    // (= hardware concurrency).
    const char* saved = std::getenv("UHD_THREADS");
    const std::string saved_value = saved != nullptr ? saved : "";

    ::setenv("UHD_THREADS", "-1", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "-9999999999999", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "garbage", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    // Absurd positive requests (including strtoll overflow saturation)
    // must not ask the pool to actually spawn that many workers.
    ::setenv("UHD_THREADS", "1000000000", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "999999999999999999999999", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("UHD_THREADS", "3", 1);
    EXPECT_EQ(thread_pool::env_threads(), 3u);
    ::unsetenv("UHD_THREADS");
    EXPECT_EQ(thread_pool::env_threads(), 0u);

    if (saved != nullptr) {
        ::setenv("UHD_THREADS", saved_value.c_str(), 1);
    }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
    thread_pool pool(2);
    EXPECT_THROW(pool.parallel_for(100,
                                   [](std::size_t begin, std::size_t) {
                                       if (begin == 0) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
}

} // namespace

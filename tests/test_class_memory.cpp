// Tests for the packed associative-memory inference engine: class_memory
// semantics, Hamming-argmin vs the per-class cosine scan it replaced
// (bit-identical argmax, including tie-breaking, over 100+ randomized
// configurations), and the classifier-level equivalence of the packed
// predict path against a replica of the seed per-class-cosine path.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "uhd/common/error.hpp"
#include "uhd/common/rng.hpp"
#include "uhd/common/simd.hpp"
#include "uhd/core/encoder.hpp"
#include "uhd/data/synthetic.hpp"
#include "uhd/hdc/class_memory.hpp"
#include "uhd/hdc/classifier.hpp"
#include "uhd/hdc/similarity.hpp"

namespace {

using namespace uhd;
using namespace uhd::hdc;

/// The seed-era binarized inference path: per-element set_bit binarization
/// followed by one cosine() call per class, strict-> first-wins argmax.
std::size_t seed_cosine_argmax(std::span<const std::int32_t> encoded,
                               const std::vector<hypervector>& class_hvs) {
    bs::bitstream bits(encoded.size());
    for (std::size_t d = 0; d < encoded.size(); ++d) {
        if (encoded[d] < 0) bits.set_bit(d, true);
    }
    const hypervector query(std::move(bits));
    std::size_t best = 0;
    double best_similarity = -2.0;
    for (std::size_t c = 0; c < class_hvs.size(); ++c) {
        const double similarity = cosine(query, class_hvs[c]);
        if (similarity > best_similarity) {
            best_similarity = similarity;
            best = c;
        }
    }
    return best;
}

TEST(ClassMemory, Geometry) {
    const class_memory mem(10, 100); // non-multiple-of-64 dimension
    EXPECT_EQ(mem.classes(), 10u);
    EXPECT_EQ(mem.dim(), 100u);
    EXPECT_EQ(mem.words_per_class(), 2u);
    EXPECT_EQ(mem.rows().size(), 20u);
    EXPECT_GT(mem.memory_bytes(), 0u);
    EXPECT_THROW((void)mem.row(10), uhd::error);
}

TEST(ClassMemory, StoreAndRowRoundTrip) {
    xoshiro256ss rng(5);
    class_memory mem(4, 130);
    std::vector<hypervector> stored;
    for (std::size_t c = 0; c < 4; ++c) {
        stored.push_back(hypervector::random(130, rng));
        mem.store(c, stored.back());
    }
    for (std::size_t c = 0; c < 4; ++c) {
        const auto row = mem.row(c);
        const auto words = stored[c].bits().words();
        ASSERT_EQ(row.size(), words.size());
        for (std::size_t w = 0; w < row.size(); ++w) EXPECT_EQ(row[w], words[w]);
    }
}

TEST(ClassMemory, StoreValidatesArguments) {
    class_memory mem(3, 64);
    xoshiro256ss rng(6);
    EXPECT_THROW(mem.store(3, hypervector::random(64, rng)), uhd::error);
    EXPECT_THROW(mem.store(0, hypervector::random(65, rng)), uhd::error);
    EXPECT_THROW((void)mem.nearest(std::span<const std::uint64_t>{}), uhd::error);
}

TEST(ClassMemory, NearestFindsExactMatch) {
    xoshiro256ss rng(7);
    class_memory mem(8, 256);
    std::vector<hypervector> stored;
    for (std::size_t c = 0; c < 8; ++c) {
        stored.push_back(hypervector::random(256, rng));
        mem.store(c, stored.back());
    }
    for (std::size_t c = 0; c < 8; ++c) {
        std::uint64_t distance = 1;
        EXPECT_EQ(mem.nearest(stored[c].bits().words(), &distance), c);
        EXPECT_EQ(distance, 0u);
    }
}

TEST(ClassMemory, TiesResolveToLowestIndex) {
    // Rows 1 and 3 are identical; a query nearest to them must return 1.
    xoshiro256ss rng(8);
    const hypervector shared_row = hypervector::random(192, rng);
    class_memory mem(4, 192);
    const hypervector far_row(~shared_row.bits());
    mem.store(0, far_row); // maximally far
    mem.store(1, shared_row);
    mem.store(2, far_row);
    mem.store(3, shared_row);
    EXPECT_EQ(mem.nearest(shared_row.bits().words()), 1u);
}

TEST(ClassMemory, NearestMatchesScalarReference) {
    xoshiro256ss rng(9);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t dim = 1 + rng.next() % 500; // non-multiple-of-64 dims
        const std::size_t classes = 2 + rng.next() % 15;
        class_memory mem(classes, dim);
        for (std::size_t c = 0; c < classes; ++c) {
            mem.store(c, hypervector::random(dim, rng));
        }
        const hypervector query = hypervector::random(dim, rng);
        // The pinned scalar oracle of the one search primitive, one query.
        kernels::argmin2_result ref{};
        simd::hamming_block_argmin2_prefix_reference(
            query.bits().words().data(), mem.words_per_class(), 1, mem.rows().data(),
            mem.words_per_class(), 0, mem.words_per_class(), classes, nullptr, &ref);
        std::uint64_t distance = 0;
        ASSERT_EQ(mem.nearest(query.bits().words(), &distance), ref.index)
            << "dim=" << dim << " classes=" << classes;
        ASSERT_EQ(distance, ref.distance);
    }
}

// The acceptance-criterion proof: the packed Hamming-argmin answer equals
// the seed per-class-cosine argmax, bit-identically, over 100+ randomized
// configurations (dims including non-multiples of 64, random class counts,
// queries with negative/zero/positive accumulator values, and deliberately
// duplicated class rows to exercise tie-breaking).
TEST(ClassMemory, PackedArgmaxBitIdenticalToCosineArgmaxOver100Configs) {
    xoshiro256ss rng(2025);
    for (int config_i = 0; config_i < 120; ++config_i) {
        const std::size_t dim = 1 + rng.next() % 700;
        const std::size_t classes = 2 + rng.next() % 20;
        std::vector<hypervector> class_hvs;
        class_memory mem(classes, dim);
        for (std::size_t c = 0; c < classes; ++c) {
            // One class in three duplicates an earlier row so exact cosine
            // ties occur and first-wins ordering is actually exercised.
            if (c > 0 && rng.next() % 3 == 0) {
                class_hvs.push_back(class_hvs[rng.next() % c]);
            } else {
                class_hvs.push_back(hypervector::random(dim, rng));
            }
            mem.store(c, class_hvs.back());
        }
        for (int query_i = 0; query_i < 5; ++query_i) {
            std::vector<std::int32_t> encoded(dim);
            for (auto& v : encoded) {
                v = static_cast<std::int32_t>(rng.next() % 201) - 100; // zeros too
            }
            std::vector<std::uint64_t> query_words(kernels::sign_words(dim));
            kernels::sign_binarize(encoded.data(), encoded.size(), query_words.data());
            ASSERT_EQ(mem.nearest(query_words), seed_cosine_argmax(encoded, class_hvs))
                << "config " << config_i << ": dim=" << dim
                << " classes=" << classes;
        }
    }
}

TEST(ClassMemory, ClassifierPredictMatchesSeedCosinePath) {
    const auto train = data::make_synthetic_digits(120, 31);
    const auto test = data::make_synthetic_digits(60, 32);
    for (const std::size_t dim : {192u, 256u, 512u}) {
        core::uhd_config cfg;
        cfg.dim = dim;
        const core::uhd_encoder enc(cfg, train.shape());
        hd_classifier<core::uhd_encoder> clf(enc, train.num_classes(),
                                             train_mode::raw_sums,
                                             query_mode::binarized);
        clf.fit(train);
        std::vector<hypervector> class_hvs;
        for (std::size_t c = 0; c < clf.classes(); ++c) {
            class_hvs.push_back(clf.class_hypervector(c));
        }
        std::vector<std::int32_t> encoded(dim);
        for (std::size_t i = 0; i < test.size(); ++i) {
            enc.encode(test.image(i), encoded);
            const std::size_t packed = clf.predict(test.image(i));
            ASSERT_EQ(packed, seed_cosine_argmax(encoded, class_hvs))
                << "dim=" << dim << " image=" << i;
            ASSERT_EQ(packed, clf.predict_encoded(encoded));
        }
    }
}

TEST(ClassMemory, ClassifierMemoryTracksFinalize) {
    const auto train = data::make_synthetic_digits(80, 33);
    core::uhd_config cfg;
    cfg.dim = 256;
    const core::uhd_encoder enc(cfg, train.shape());
    hd_classifier<core::uhd_encoder> clf(enc, 10);
    clf.fit(train);
    const class_memory& mem = clf.packed_class_memory();
    ASSERT_EQ(mem.classes(), 10u);
    ASSERT_EQ(mem.dim(), 256u);
    for (std::size_t c = 0; c < 10; ++c) {
        const auto row = mem.row(c);
        const hypervector expected = clf.class_accumulator(c).sign();
        const auto words = expected.bits().words();
        for (std::size_t w = 0; w < row.size(); ++w) EXPECT_EQ(row[w], words[w]);
    }
}

} // namespace

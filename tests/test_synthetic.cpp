// Tests for the synthetic dataset generators (the documented substitutes
// for the paper's six evaluation datasets).
#include <gtest/gtest.h>

#include <array>
#include <set>

#include "uhd/data/synthetic.hpp"

namespace {

using namespace uhd::data;

/// rows, cols, channels: image_shape has no operator==.
std::array<std::size_t, 3> dims(const image_shape& s) { return {s.rows, s.cols, s.channels}; }

TEST(SyntheticInfo, MatchesOriginalDatasetGeometry) {
    EXPECT_EQ(dims(info_for(dataset_kind::mnist).shape), dims({28, 28, 1}));
    EXPECT_EQ(info_for(dataset_kind::mnist).classes, 10u);
    EXPECT_EQ(dims(info_for(dataset_kind::fashion_mnist).shape), dims({28, 28, 1}));
    EXPECT_EQ(dims(info_for(dataset_kind::blood_mnist).shape), dims({28, 28, 3}));
    EXPECT_EQ(info_for(dataset_kind::blood_mnist).classes, 8u);
    EXPECT_EQ(info_for(dataset_kind::breast_mnist).classes, 2u);
    EXPECT_EQ(dims(info_for(dataset_kind::cifar10).shape), dims({32, 32, 3}));
    EXPECT_EQ(dims(info_for(dataset_kind::svhn).shape), dims({32, 32, 3}));
}

TEST(SyntheticInfo, AllKindsListed) {
    EXPECT_EQ(all_dataset_kinds().size(), 6u);
}

class SyntheticKinds : public ::testing::TestWithParam<dataset_kind> {};

TEST_P(SyntheticKinds, GeneratesRequestedCountAndShape) {
    const dataset_kind kind = GetParam();
    const dataset_info info = info_for(kind);
    const dataset ds = make_synthetic(kind, 40, 123);
    EXPECT_EQ(ds.size(), 40u);
    EXPECT_EQ(dims(ds.shape()), dims(info.shape));
    EXPECT_EQ(ds.num_classes(), info.classes);
}

TEST_P(SyntheticKinds, ClassesAreBalanced) {
    const dataset_kind kind = GetParam();
    const dataset_info info = info_for(kind);
    const std::size_t per_class = 8;
    const dataset ds = make_synthetic(kind, per_class * info.classes, 55);
    for (const std::size_t count : ds.class_counts()) {
        EXPECT_EQ(count, per_class);
    }
}

TEST_P(SyntheticKinds, DeterministicForSameSeed) {
    const dataset_kind kind = GetParam();
    const dataset a = make_synthetic(kind, 12, 9);
    const dataset b = make_synthetic(kind, 12, 9);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.label(i), b.label(i));
        const auto ia = a.image(i);
        const auto ib = b.image(i);
        for (std::size_t v = 0; v < ia.size(); ++v) ASSERT_EQ(ia[v], ib[v]);
    }
}

TEST_P(SyntheticKinds, DifferentSeedsDiffer) {
    const dataset_kind kind = GetParam();
    const dataset a = make_synthetic(kind, 12, 1);
    const dataset b = make_synthetic(kind, 12, 2);
    bool any_difference = false;
    for (std::size_t i = 0; i < a.size() && !any_difference; ++i) {
        const auto ia = a.image(i);
        const auto ib = b.image(i);
        for (std::size_t v = 0; v < ia.size(); ++v) {
            if (ia[v] != ib[v]) {
                any_difference = true;
                break;
            }
        }
    }
    EXPECT_TRUE(any_difference);
}

TEST_P(SyntheticKinds, ImagesAreNotConstant) {
    const dataset_kind kind = GetParam();
    const dataset ds = make_synthetic(kind, 10, 77);
    for (std::size_t i = 0; i < ds.size(); ++i) {
        const auto img = ds.image(i);
        std::set<std::uint8_t> distinct(img.begin(), img.end());
        EXPECT_GT(distinct.size(), 4u) << "image " << i << " is nearly constant";
    }
}

TEST_P(SyntheticKinds, ClassConditionalStructureIsLearnable) {
    // Same-class images should look more alike than different-class images
    // on average (L1 distance over pixels) — otherwise the generator carries
    // no class signal and every accuracy table would be meaningless.
    const dataset_kind kind = GetParam();
    const dataset ds = make_synthetic(kind, 60, 31).to_grayscale();
    double same_sum = 0.0;
    double diff_sum = 0.0;
    std::size_t same_n = 0;
    std::size_t diff_n = 0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        for (std::size_t j = i + 1; j < ds.size(); ++j) {
            const auto a = ds.image(i);
            const auto b = ds.image(j);
            double l1 = 0.0;
            for (std::size_t v = 0; v < a.size(); ++v) {
                l1 += std::abs(static_cast<int>(a[v]) - static_cast<int>(b[v]));
            }
            if (ds.label(i) == ds.label(j)) {
                same_sum += l1;
                ++same_n;
            } else {
                diff_sum += l1;
                ++diff_n;
            }
        }
    }
    ASSERT_GT(same_n, 0u);
    ASSERT_GT(diff_n, 0u);
    EXPECT_LT(same_sum / static_cast<double>(same_n),
              diff_sum / static_cast<double>(diff_n));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SyntheticKinds,
                         ::testing::Values(dataset_kind::mnist,
                                           dataset_kind::fashion_mnist,
                                           dataset_kind::blood_mnist,
                                           dataset_kind::breast_mnist,
                                           dataset_kind::cifar10, dataset_kind::svhn));

TEST(SyntheticDigits, ConvenienceWrappersMatchKinds) {
    const dataset a = make_synthetic_digits(10, 4);
    const dataset b = make_synthetic(dataset_kind::mnist, 10, 4);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.label(i), b.label(i));
        EXPECT_EQ(a.image(i)[400], b.image(i)[400]);
    }
}

TEST(SyntheticDigits, MostlyDarkLikeMnist) {
    // MNIST-like: the background dominates, mean intensity well below 128.
    const dataset ds = make_synthetic_digits(20, 8);
    double total = 0.0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        for (const std::uint8_t v : ds.image(i)) total += v;
    }
    const double mean = total / (20.0 * 28 * 28);
    EXPECT_LT(mean, 100.0);
    EXPECT_GT(mean, 5.0);
}

} // namespace

// Tests for the dataset container, IDX loader, canvas, and confusion matrix.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "uhd/common/error.hpp"
#include "uhd/data/canvas.hpp"
#include "uhd/data/dataset.hpp"
#include "uhd/data/idx.hpp"
#include "uhd/data/metrics.hpp"

namespace {

using namespace uhd::data;
using bytes = std::vector<std::uint8_t>;

dataset tiny_dataset() {
    dataset ds(image_shape{2, 2, 1}, 2);
    ds.add(bytes{0, 50, 100, 150}, 0);
    ds.add(bytes{10, 60, 110, 160}, 1);
    ds.add(bytes{20, 70, 120, 170}, 0);
    ds.add(bytes{30, 80, 130, 180}, 1);
    return ds;
}

TEST(Dataset, ShapeValidation) {
    EXPECT_THROW(dataset(image_shape{0, 2, 1}, 2), uhd::error);
    EXPECT_THROW(dataset(image_shape{2, 2, 2}, 2), uhd::error);
    EXPECT_THROW(dataset(image_shape{2, 2, 1}, 1), uhd::error);
}

TEST(Dataset, ClassCountFitsTheStoredLabels) {
    // Labels are stored in 16 bits: 65536 classes is the most that keeps
    // every label, and a larger count would silently wrap label 65536 to 0.
    EXPECT_THROW(dataset(image_shape{2, 2, 1}, 65537), uhd::error);
    dataset ds(image_shape{2, 2, 1}, 65536);
    ds.add(bytes{1, 2, 3, 4}, 65535);
    EXPECT_EQ(ds.label(0), 65535u);
}

TEST(Dataset, AddAndAccess) {
    const dataset ds = tiny_dataset();
    EXPECT_EQ(ds.size(), 4u);
    EXPECT_EQ(ds.label(1), 1u);
    EXPECT_EQ(ds.image(0)[3], 150);
    EXPECT_EQ(ds.class_counts(), (std::vector<std::size_t>{2, 2}));
}

TEST(Dataset, AddValidation) {
    dataset ds(image_shape{2, 2, 1}, 2);
    EXPECT_THROW(ds.add(bytes{1, 2, 3}, 0), uhd::error);       // wrong size
    EXPECT_THROW(ds.add(bytes{1, 2, 3, 4}, 2), uhd::error);    // bad label
    EXPECT_THROW((void)ds.image(0), uhd::error);          // empty access
}

TEST(Dataset, ShuffleIsDeterministicPermutation) {
    dataset a = tiny_dataset();
    dataset b = tiny_dataset();
    a.shuffle(7);
    b.shuffle(7);
    ASSERT_EQ(a.size(), b.size());
    std::size_t matches_original = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.label(i), b.label(i));
        EXPECT_EQ(a.image(i)[0], b.image(i)[0]);
    }
    // Same multiset of labels.
    EXPECT_EQ(a.class_counts(), tiny_dataset().class_counts());
    (void)matches_original;
}

TEST(Dataset, GrayscaleConversionUsesLuma) {
    dataset rgb(image_shape{1, 1, 3}, 2);
    rgb.add(bytes{255, 0, 0}, 0); // pure red -> ~76
    rgb.add(bytes{0, 255, 0}, 1); // pure green -> ~150
    const dataset gray = rgb.to_grayscale();
    EXPECT_EQ(gray.shape().channels, 1u);
    EXPECT_NEAR(gray.image(0)[0], 76, 1);
    EXPECT_NEAR(gray.image(1)[0], 150, 1);
}

TEST(Dataset, GrayscaleOfGrayscaleIsCopy) {
    const dataset ds = tiny_dataset();
    const dataset gray = ds.to_grayscale();
    EXPECT_EQ(gray.size(), ds.size());
    EXPECT_EQ(gray.image(2)[1], ds.image(2)[1]);
}

TEST(Canvas, DrawingPrimitivesStayInBounds) {
    canvas c(16, 16);
    c.add_disk(8, 8, 3, 100.0F);
    c.add_rect(-5, -5, 40, 40, 10.0F); // clips
    c.add_line(0, 0, 15, 15, 1.0, 50.0F);
    c.add_ring(8, 8, 5, 1.0, 30.0F);
    c.add_gradient(0.0F, 20.0F);
    const auto u8 = c.to_u8();
    EXPECT_EQ(u8.size(), 256u);
}

TEST(Canvas, ToU8Clamps) {
    canvas c(2, 2);
    c.set(0, 0, -50.0F);
    c.set(0, 1, 300.0F);
    c.set(1, 0, 128.0F);
    const auto u8 = c.to_u8();
    EXPECT_EQ(u8[0], 0);
    EXPECT_EQ(u8[1], 255);
    EXPECT_EQ(u8[2], 128);
}

TEST(Canvas, BlurPreservesMassApproximately) {
    canvas c(9, 9);
    c.set(4, 4, 81.0F);
    c.box_blur(1);
    float sum = 0.0F;
    for (std::size_t r = 0; r < 9; ++r) {
        for (std::size_t col = 0; col < 9; ++col) sum += c.at(r, col);
    }
    EXPECT_NEAR(sum, 81.0F, 1.0F);
}

TEST(Canvas, InvalidAccessThrows) {
    canvas c(4, 4);
    EXPECT_THROW((void)c.at(4, 0), uhd::error);
    EXPECT_THROW(c.set(0, 4, 1.0F), uhd::error);
    EXPECT_THROW(c.box_blur(0), uhd::error);
    EXPECT_THROW(canvas(0, 4), uhd::error);
}

TEST(Idx, RoundTripThroughFiles) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "uhd_idx_test";
    fs::create_directories(dir);
    const fs::path images_path = dir / "imgs";
    const fs::path labels_path = dir / "lbls";

    // Write a 2-image 2x3 IDX pair by hand (big-endian headers).
    auto write_be32 = [](std::ofstream& os, std::uint32_t v) {
        const unsigned char bytes[4] = {
            static_cast<unsigned char>(v >> 24), static_cast<unsigned char>(v >> 16),
            static_cast<unsigned char>(v >> 8), static_cast<unsigned char>(v)};
        os.write(reinterpret_cast<const char*>(bytes), 4);
    };
    {
        std::ofstream images(images_path, std::ios::binary);
        write_be32(images, 0x803);
        write_be32(images, 2);
        write_be32(images, 2);
        write_be32(images, 3);
        for (int i = 0; i < 12; ++i) images.put(static_cast<char>(i * 10));
        std::ofstream labels(labels_path, std::ios::binary);
        write_be32(labels, 0x801);
        write_be32(labels, 2);
        labels.put(3);
        labels.put(7);
    }
    const dataset ds = load_idx(images_path.string(), labels_path.string());
    EXPECT_EQ(ds.size(), 2u);
    EXPECT_EQ(ds.shape().rows, 2u);
    EXPECT_EQ(ds.shape().cols, 3u);
    EXPECT_EQ(ds.label(0), 3u);
    EXPECT_EQ(ds.label(1), 7u);
    EXPECT_EQ(ds.image(1)[0], 60);
    fs::remove_all(dir);
}

TEST(Idx, MissingFilesReturnNullopt) {
    EXPECT_FALSE(try_load_mnist("/nonexistent/path").has_value());
}

TEST(ConfusionMatrix, RecallPrecisionAndF1) {
    confusion_matrix m(3);
    m.record(0, 0);
    m.record(0, 0);
    m.record(1, 1);
    m.record(1, 2);
    m.record(2, 2);
    EXPECT_EQ(m.count(0, 0) + m.count(1, 1) + m.count(1, 2) + m.count(2, 2), 5u);
    EXPECT_DOUBLE_EQ(m.recall(0), 1.0);
    EXPECT_DOUBLE_EQ(m.recall(1), 0.5);
    EXPECT_DOUBLE_EQ(m.precision(2), 0.5);
    EXPECT_GT(m.macro_f1(), 0.0);
    EXPECT_THROW(m.record(3, 0), uhd::error);
}

} // namespace

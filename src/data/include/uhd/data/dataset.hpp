// Labeled image dataset container used by both HDC pipelines.
//
// Images are stored as 8-bit intensities (row-major, channel-interleaved for
// multi-channel data), matching the paper's convention of 8-bit grayscale
// pixels (0 <= X <= 255). Multi-channel datasets (CIFAR-10/SVHN analogues)
// are converted to grayscale luminance before encoding, as the encoders
// operate on one intensity per pixel position.
#ifndef UHD_DATA_DATASET_HPP
#define UHD_DATA_DATASET_HPP

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace uhd::data {

/// Image geometry: rows x cols x channels.
struct image_shape {
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t channels = 1;

    /// Pixel positions (H in the paper): rows * cols.
    [[nodiscard]] std::size_t pixels() const noexcept { return rows * cols; }

    /// Stored values per image: rows * cols * channels.
    [[nodiscard]] std::size_t values() const noexcept { return rows * cols * channels; }

    [[nodiscard]] bool operator==(const image_shape&) const noexcept = default;
};

/// A labeled set of equally shaped 8-bit images.
class dataset {
public:
    dataset() = default;

    /// Empty dataset for images of `shape` with labels in [0, num_classes);
    /// 2 <= num_classes <= 65536 (labels are stored as 16-bit values).
    dataset(image_shape shape, std::size_t num_classes);

    /// Append one image; `pixels` must have shape.values() entries and
    /// `label` must be < num_classes().
    void add(std::span<const std::uint8_t> pixels, std::size_t label);

    /// Braced-list convenience: span cannot bind an initializer_list
    /// directly until C++26.
    void add(std::initializer_list<std::uint8_t> pixels, std::size_t label) {
        add(std::span<const std::uint8_t>(pixels.begin(), pixels.size()), label);
    }

    [[nodiscard]] std::size_t size() const noexcept { return labels_.size(); }
    [[nodiscard]] bool empty() const noexcept { return labels_.empty(); }
    [[nodiscard]] const image_shape& shape() const noexcept { return shape_; }
    [[nodiscard]] std::size_t num_classes() const noexcept { return num_classes_; }

    /// Raw values of image `i` (length shape().values()).
    [[nodiscard]] std::span<const std::uint8_t> image(std::size_t i) const;

    /// Raw values of images [begin, begin + count) back-to-back (images are
    /// stored in one contiguous buffer, so a mini-batch is a single span —
    /// the zero-copy input of the batch encode/train engines).
    [[nodiscard]] std::span<const std::uint8_t> images(std::size_t begin,
                                                       std::size_t count) const;

    /// Label of image `i`.
    [[nodiscard]] std::size_t label(std::size_t i) const;

    /// Per-class sample counts.
    [[nodiscard]] std::vector<std::size_t> class_counts() const;

    /// Luminance-converted copy (no-op copy when already single-channel).
    [[nodiscard]] dataset to_grayscale() const;

    /// Deterministically shuffle sample order.
    void shuffle(std::uint64_t seed);

    /// Split into (train, test) with `train_fraction` of samples (after an
    /// internal shuffle with `seed`) going to train.
    [[nodiscard]] std::pair<dataset, dataset> split(double train_fraction,
                                                    std::uint64_t seed) const;

    /// Heap footprint (Table I memory accounting).
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

private:
    image_shape shape_{};
    std::size_t num_classes_ = 0;
    std::vector<std::uint8_t> values_; // size() * shape_.values(), contiguous
    std::vector<std::uint16_t> labels_;
};

} // namespace uhd::data

#endif // UHD_DATA_DATASET_HPP

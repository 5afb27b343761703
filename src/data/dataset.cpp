#include "uhd/data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "uhd/common/error.hpp"
#include "uhd/common/rng.hpp"

namespace uhd::data {

dataset::dataset(image_shape shape, std::size_t num_classes)
    : shape_(shape), num_classes_(num_classes) {
    UHD_REQUIRE(shape.rows > 0 && shape.cols > 0, "image shape must be non-empty");
    UHD_REQUIRE(shape.channels == 1 || shape.channels == 3,
                "only 1- or 3-channel images are supported");
    UHD_REQUIRE(num_classes >= 2, "need at least two classes");
    // Labels are stored as uint16: a larger label would wrap on add().
    UHD_REQUIRE(num_classes <= std::size_t{std::numeric_limits<std::uint16_t>::max()} + 1,
                "at most 65536 classes");
}

void dataset::add(std::span<const std::uint8_t> pixels, std::size_t label) {
    UHD_REQUIRE(pixels.size() == shape_.values(), "image size does not match shape");
    UHD_REQUIRE(label < num_classes_, "label out of range");
    values_.insert(values_.end(), pixels.begin(), pixels.end());
    labels_.push_back(static_cast<std::uint16_t>(label));
}

std::span<const std::uint8_t> dataset::image(std::size_t i) const {
    UHD_REQUIRE(i < labels_.size(), "image index out of range");
    return {values_.data() + i * shape_.values(), shape_.values()};
}

std::span<const std::uint8_t> dataset::images(std::size_t begin,
                                              std::size_t count) const {
    UHD_REQUIRE(begin <= labels_.size() && count <= labels_.size() - begin,
                "image range out of bounds");
    return {values_.data() + begin * shape_.values(), count * shape_.values()};
}

std::size_t dataset::label(std::size_t i) const {
    UHD_REQUIRE(i < labels_.size(), "label index out of range");
    return labels_[i];
}

std::vector<std::size_t> dataset::class_counts() const {
    std::vector<std::size_t> counts(num_classes_, 0);
    for (const auto label : labels_) ++counts[label];
    return counts;
}

dataset dataset::to_grayscale() const {
    if (shape_.channels == 1) return *this;
    dataset gray(image_shape{shape_.rows, shape_.cols, 1}, num_classes_);
    std::vector<std::uint8_t> buffer(shape_.pixels());
    for (std::size_t i = 0; i < size(); ++i) {
        const auto rgb = image(i);
        for (std::size_t p = 0; p < shape_.pixels(); ++p) {
            // ITU-R BT.601 luma weights.
            const double y = 0.299 * rgb[3 * p] + 0.587 * rgb[3 * p + 1] +
                             0.114 * rgb[3 * p + 2];
            buffer[p] = static_cast<std::uint8_t>(std::lround(std::min(y, 255.0)));
        }
        gray.add(buffer, labels_[i]);
    }
    return gray;
}

void dataset::shuffle(std::uint64_t seed) {
    std::vector<std::size_t> order(size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    xoshiro256ss rng(seed);
    for (std::size_t i = order.size(); i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(rng.next_below(i));
        std::swap(order[i - 1], order[j]);
    }
    std::vector<std::uint8_t> new_values(values_.size());
    std::vector<std::uint16_t> new_labels(labels_.size());
    const std::size_t stride = shape_.values();
    for (std::size_t i = 0; i < order.size(); ++i) {
        std::copy_n(values_.data() + order[i] * stride, stride,
                    new_values.data() + i * stride);
        new_labels[i] = labels_[order[i]];
    }
    values_ = std::move(new_values);
    labels_ = std::move(new_labels);
}

} // namespace uhd::data

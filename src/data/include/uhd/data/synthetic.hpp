// Synthetic stand-ins for the paper's evaluation datasets.
//
// The evaluation uses MNIST, FashionMNIST, BloodMNIST, BreastMNIST,
// CIFAR-10 and SVHN. None of those can be downloaded in this offline
// environment, so this module generates deterministic procedural datasets
// that match each original's *shape* — image geometry, channel count, class
// count, and a class-conditional visual structure — so that the HDC encoding
// pipelines are exercised on exactly the same code path as with real data
// (8-bit intensities, one value per pixel after luminance conversion).
// See DESIGN.md §4.2 for the substitution rationale. When real MNIST IDX
// files are available, uhd/data/idx.hpp loads them instead.
//
// All generators are pure functions of (count, seed): same inputs, same
// dataset, bit for bit.
#ifndef UHD_DATA_SYNTHETIC_HPP
#define UHD_DATA_SYNTHETIC_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "uhd/data/dataset.hpp"

namespace uhd::data {

/// The six evaluation datasets of the paper (Table IV and Table V).
enum class dataset_kind {
    mnist,         ///< 28x28x1, 10 classes of handwritten-style digits
    fashion_mnist, ///< 28x28x1, 10 clothing silhouette classes
    blood_mnist,   ///< 28x28x3, 8 blood-cell morphology classes
    breast_mnist,  ///< 28x28x1, 2 ultrasound lesion classes
    cifar10,       ///< 32x32x3, 10 natural-scene object classes
    svhn,          ///< 32x32x3, 10 street-view digit classes
};

/// Static description of a dataset kind.
struct dataset_info {
    std::string name;
    image_shape shape;
    std::size_t classes = 0;
};

/// Name/shape/class-count for `kind`.
[[nodiscard]] dataset_info info_for(dataset_kind kind);

/// All dataset kinds in the order Table V lists them (MNIST first).
[[nodiscard]] const std::vector<dataset_kind>& all_dataset_kinds();

/// Generate `count` images of `kind` with balanced classes.
[[nodiscard]] dataset make_synthetic(dataset_kind kind, std::size_t count,
                                     std::uint64_t seed);

// The digits generator (make_synthetic with dataset_kind::mnist).
[[nodiscard]] dataset make_synthetic_digits(std::size_t count, std::uint64_t seed);

} // namespace uhd::data

#endif // UHD_DATA_SYNTHETIC_HPP

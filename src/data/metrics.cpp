#include "uhd/data/metrics.hpp"

#include "uhd/common/error.hpp"

namespace uhd::data {

confusion_matrix::confusion_matrix(std::size_t classes)
    : classes_(classes), cells_(classes * classes, 0) {
    UHD_REQUIRE(classes >= 2, "confusion matrix needs at least two classes");
}

void confusion_matrix::record(std::size_t truth, std::size_t predicted) {
    UHD_REQUIRE(truth < classes_ && predicted < classes_, "label out of range");
    ++cells_[truth * classes_ + predicted];
}

// uhd-lint: test-reference test_simd_kernels compares pooled and serial matrices cell by cell with it
std::size_t confusion_matrix::count(std::size_t truth, std::size_t predicted) const {
    UHD_REQUIRE(truth < classes_ && predicted < classes_, "label out of range");
    return cells_[truth * classes_ + predicted];
}

double confusion_matrix::recall(std::size_t truth) const {
    UHD_REQUIRE(truth < classes_, "label out of range");
    std::size_t row_sum = 0;
    for (std::size_t p = 0; p < classes_; ++p) row_sum += cells_[truth * classes_ + p];
    if (row_sum == 0) return 0.0;
    return static_cast<double>(cells_[truth * classes_ + truth]) /
           static_cast<double>(row_sum);
}

double confusion_matrix::precision(std::size_t predicted) const {
    UHD_REQUIRE(predicted < classes_, "label out of range");
    std::size_t col_sum = 0;
    for (std::size_t t = 0; t < classes_; ++t) col_sum += cells_[t * classes_ + predicted];
    if (col_sum == 0) return 0.0;
    return static_cast<double>(cells_[predicted * classes_ + predicted]) /
           static_cast<double>(col_sum);
}

double confusion_matrix::macro_f1() const {
    double sum = 0.0;
    for (std::size_t c = 0; c < classes_; ++c) {
        const double p = precision(c);
        const double r = recall(c);
        sum += (p + r) > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
    }
    return sum / static_cast<double>(classes_);
}

} // namespace uhd::data

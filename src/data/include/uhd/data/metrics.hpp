// Classification quality metrics for the accuracy tables (Tables IV, V).
#ifndef UHD_DATA_METRICS_HPP
#define UHD_DATA_METRICS_HPP

#include <cstddef>
#include <vector>

namespace uhd::data {

/// Square confusion matrix over `classes` labels.
class confusion_matrix {
public:
    explicit confusion_matrix(std::size_t classes);

    /// Record one (truth, prediction) pair.
    void record(std::size_t truth, std::size_t predicted);

    /// Count of samples with true label `truth` predicted as `predicted`.
    [[nodiscard]] std::size_t count(std::size_t truth, std::size_t predicted) const;

    /// Recall of one class (diagonal / row sum); 0 for empty rows.
    [[nodiscard]] double recall(std::size_t truth) const;

    /// Precision of one class (diagonal / column sum); 0 for empty columns.
    [[nodiscard]] double precision(std::size_t predicted) const;

    /// Macro-averaged F1 score across classes.
    [[nodiscard]] double macro_f1() const;

private:
    std::size_t classes_;
    std::vector<std::size_t> cells_; // row-major truth x predicted
};

} // namespace uhd::data

#endif // UHD_DATA_METRICS_HPP

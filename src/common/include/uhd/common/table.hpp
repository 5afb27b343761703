// Plain-text table printer used by the bench harnesses to emit the paper's
// tables with aligned columns.
#ifndef UHD_COMMON_TABLE_HPP
#define UHD_COMMON_TABLE_HPP

#include <cstddef>
#include <string>
#include <vector>

namespace uhd {

/// Accumulates rows of strings and renders them as an aligned ASCII table.
class text_table {
public:
    /// Set the header row (column titles).
    void set_header(std::vector<std::string> header);

    /// Append a data row; rows may have fewer cells than the header.
    void add_row(std::vector<std::string> row);

    /// Append a horizontal rule between row groups.
    void add_rule();

    /// Render with padded columns and box-drawing rules.
    [[nodiscard]] std::string to_string() const;

private:
    struct row_entry {
        std::vector<std::string> cells;
        bool is_rule = false;
    };

    std::vector<std::string> header_;
    std::vector<row_entry> rows_;
};

/// Format a double with `digits` significant decimal places.
[[nodiscard]] std::string format_fixed(double value, int digits);

/// Format a double in scientific notation with `digits` decimals (e.g. 1.70e-06).
[[nodiscard]] std::string format_sci(double value, int digits);

/// Format "X.Yx" speed-up/efficiency ratios the way the paper prints them.
[[nodiscard]] std::string format_ratio(double ratio, int digits = 1);

} // namespace uhd

#endif // UHD_COMMON_TABLE_HPP

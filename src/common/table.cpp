#include "uhd/common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace uhd {

void text_table::set_header(std::vector<std::string> header) { header_ = std::move(header); }

void text_table::add_row(std::vector<std::string> row) {
    rows_.push_back({std::move(row), /*is_rule=*/false});
}

void text_table::add_rule() { rows_.push_back({{}, /*is_rule=*/true}); }

std::string text_table::to_string() const {
    // Compute column widths across header and all rows.
    std::size_t columns = header_.size();
    for (const auto& r : rows_) columns = std::max(columns, r.cells.size());
    std::vector<std::size_t> width(columns, 0);
    auto widen = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c)
            width[c] = std::max(width[c], cells[c].size());
    };
    widen(header_);
    for (const auto& r : rows_)
        if (!r.is_rule) widen(r.cells);

    auto emit_row = [&](std::ostringstream& os, const std::vector<std::string>& cells) {
        os << '|';
        for (std::size_t c = 0; c < columns; ++c) {
            const std::string& cell = c < cells.size() ? cells[c] : std::string{};
            os << ' ' << cell << std::string(width[c] - cell.size(), ' ') << " |";
        }
        os << '\n';
    };
    auto emit_rule = [&](std::ostringstream& os) {
        os << '+';
        for (std::size_t c = 0; c < columns; ++c) os << std::string(width[c] + 2, '-') << '+';
        os << '\n';
    };

    std::ostringstream os;
    emit_rule(os);
    if (!header_.empty()) {
        emit_row(os, header_);
        emit_rule(os);
    }
    for (const auto& r : rows_) {
        if (r.is_rule) {
            emit_rule(os);
        } else {
            emit_row(os, r.cells);
        }
    }
    emit_rule(os);
    return os.str();
}

std::string format_fixed(double value, int digits) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(digits) << value;
    return os.str();
}

std::string format_sci(double value, int digits) {
    std::ostringstream os;
    os << std::scientific << std::setprecision(digits) << value;
    return os.str();
}

std::string format_ratio(double ratio, int digits) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(digits) << ratio << 'x';
    return os.str();
}

} // namespace uhd

// Source loading and the comment/string-stripping lexer for uhd_lint.
//
// The "code" view it produces is byte-for-byte the same length as the raw
// file with every comment, string literal, and character literal replaced
// by spaces (newlines kept), so rules can token-scan without tripping on
// prose like "this header must never grow an #ifdef __AVX2__ block again"
// — the very comment that motivated building the analyzer.
#include "uhd_lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace uhd_lint {

namespace {

[[nodiscard]] bool ident_char(char c) noexcept {
    return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

/// Blank [begin, end) to spaces, preserving newlines.
void blank(std::string& s, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end && i < s.size(); ++i) {
        if (s[i] != '\n') s[i] = ' ';
    }
}

/// Length of a raw-string prefix at `pos` ("R" already matched at pos),
/// writing the closing sentinel `)delim"` into `closer`; 0 when pos does
/// not start a raw string literal.
[[nodiscard]] std::size_t raw_string_open(std::string_view raw, std::size_t pos,
                                          std::string& closer) {
    // pos points at 'R'; expect R"delim( with delim up to 16 chars.
    if (pos + 1 >= raw.size() || raw[pos + 1] != '"') return 0;
    std::size_t i = pos + 2;
    std::string delim;
    while (i < raw.size() && raw[i] != '(' && delim.size() <= 16) {
        delim += raw[i];
        ++i;
    }
    if (i >= raw.size() || raw[i] != '(') return 0;
    closer = ")" + delim + "\"";
    return i - pos + 1;
}

} // namespace

std::string strip_comments_and_strings(std::string_view raw) {
    std::string out(raw);
    std::size_t i = 0;
    const std::size_t n = raw.size();
    while (i < n) {
        const char c = raw[i];
        if (c == '/' && i + 1 < n && raw[i + 1] == '/') {
            std::size_t end = raw.find('\n', i);
            if (end == std::string_view::npos) end = n;
            blank(out, i, end);
            i = end;
        } else if (c == '/' && i + 1 < n && raw[i + 1] == '*') {
            std::size_t end = raw.find("*/", i + 2);
            end = (end == std::string_view::npos) ? n : end + 2;
            blank(out, i, end);
            i = end;
        } else if (c == 'R' && (i == 0 || !ident_char(raw[i - 1]))) {
            std::string closer;
            const std::size_t open = raw_string_open(raw, i, closer);
            if (open == 0) {
                ++i;
                continue;
            }
            std::size_t end = raw.find(closer, i + open);
            end = (end == std::string_view::npos) ? n : end + closer.size();
            blank(out, i, end);
            i = end;
        } else if (c == '"' || c == '\'') {
            // Skip digit separators (1'000'000): a quote directly after an
            // alphanumeric character is not a character literal opener.
            if (c == '\'' && i > 0 && ident_char(raw[i - 1])) {
                ++i;
                continue;
            }
            std::size_t j = i + 1;
            while (j < n && raw[j] != c) {
                if (raw[j] == '\\' && j + 1 < n) ++j;
                if (raw[j] == '\n') break;  // unterminated: stop at the line
                ++j;
            }
            const std::size_t end = (j < n && raw[j] == c) ? j + 1 : j;
            blank(out, i, end);
            i = end;
        } else {
            ++i;
        }
    }
    return out;
}

std::size_t source_file::line_of(std::size_t offset) const noexcept {
    offset = std::min(offset, raw.size());
    return 1 + static_cast<std::size_t>(
                   std::count(raw.begin(), raw.begin() + static_cast<std::ptrdiff_t>(offset), '\n'));
}

bool token_at(std::string_view code, std::size_t pos, std::string_view token) noexcept {
    if (pos + token.size() > code.size()) return false;
    if (code.substr(pos, token.size()) != token) return false;
    if (pos > 0 && ident_char(code[pos - 1])) return false;
    const std::size_t after = pos + token.size();
    if (after < code.size() && ident_char(code[after])) return false;
    return true;
}

std::size_t find_token(std::string_view code, std::string_view token,
                       std::size_t from) noexcept {
    for (std::size_t pos = code.find(token, from); pos != std::string_view::npos;
         pos = code.find(token, pos + 1)) {
        if (token_at(code, pos, token)) return pos;
    }
    return std::string_view::npos;
}

namespace {

[[nodiscard]] std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    return std::move(buf).str();
}

[[nodiscard]] bool wanted_extension(const std::filesystem::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".inc";
}

[[nodiscard]] bool skipped_directory(const std::string& name) {
    return name == "lint_fixtures" || name.starts_with("build") ||
           name.starts_with(".");
}

} // namespace

const source_file* project::find(std::string_view rel_path) const noexcept {
    for (const source_file& f : files) {
        if (f.rel_path == rel_path) return &f;
    }
    return nullptr;
}

project load_project(const std::filesystem::path& root) {
    namespace fs = std::filesystem;
    if (!fs::is_directory(root)) {
        throw std::runtime_error("not a directory: " + root.string());
    }
    project p;
    p.root = root;

    const char* scanned_dirs[] = {"src", "tests", "bench", "examples", "tools"};
    std::vector<fs::path> paths;
    for (const char* dir : scanned_dirs) {
        const fs::path top = root / dir;
        if (!fs::is_directory(top)) continue;
        fs::recursive_directory_iterator it(top), end;
        for (; it != end; ++it) {
            if (it->is_directory()) {
                if (skipped_directory(it->path().filename().string())) {
                    it.disable_recursion_pending();
                }
                continue;
            }
            if (it->is_regular_file() && wanted_extension(it->path())) {
                paths.push_back(it->path());
            }
        }
    }
    if (fs::is_regular_file(root / "bench" / "README.md")) {
        paths.push_back(root / "bench" / "README.md");
    }
    std::sort(paths.begin(), paths.end());

    for (const fs::path& path : paths) {
        source_file f;
        f.rel_path = fs::relative(path, root).generic_string();
        f.raw = read_file(path);
        // README stays raw-only; stripping markdown as C++ is meaningless.
        f.code = path.extension() == ".md" ? f.raw
                                           : strip_comments_and_strings(f.raw);
        p.files.push_back(std::move(f));
    }
    return p;
}

void load_symbol_listings(project& p, const std::filesystem::path& library,
                          const std::filesystem::path& products) {
    p.library_symbols = read_file(library);
    p.product_symbols = read_file(products);
    if (p.library_symbols.empty() || p.product_symbols.empty()) {
        throw std::runtime_error("empty symbol listing: " + library.string() + " or " +
                                 products.string());
    }
}

} // namespace uhd_lint

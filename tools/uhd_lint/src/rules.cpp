// The seven project-invariant rules of uhd_lint.
//
// Each rule is a structural property of the tree that the build system and
// reviewers used to guard by hand. They all operate on the stripped "code"
// view (comments and literals blanked) except bench-schema-sync, which by
// its nature inspects emitted JSON text inside string literals and the
// markdown doc table.
#include "uhd_lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <map>
#include <regex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace uhd_lint {

namespace {

[[nodiscard]] bool ident_char(char c) noexcept {
    return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

[[nodiscard]] std::string basename_of(std::string_view rel) {
    const std::size_t slash = rel.rfind('/');
    return std::string(slash == std::string_view::npos ? rel : rel.substr(slash + 1));
}

[[nodiscard]] std::size_t skip_ws(std::string_view s, std::size_t pos) noexcept {
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos])) != 0) {
        ++pos;
    }
    return pos;
}

[[nodiscard]] std::string read_ident(std::string_view s, std::size_t pos) {
    std::size_t end = pos;
    while (end < s.size() && ident_char(s[end])) ++end;
    return std::string(s.substr(pos, end - pos));
}

/// Offset just past the brace matching the '{' at `open` (paren/brace/
/// bracket aware); npos when unbalanced.
[[nodiscard]] std::size_t match_brace(std::string_view s, std::size_t open) noexcept {
    int depth = 0;
    for (std::size_t i = open; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '{' || c == '(' || c == '[') ++depth;
        if (c == '}' || c == ')' || c == ']') {
            --depth;
            if (depth == 0) return i + 1;
        }
    }
    return std::string_view::npos;
}

/// The set of headers a file includes directly (both <...> and "..."
/// spellings, path as written).
[[nodiscard]] std::set<std::string> direct_includes(const source_file& f) {
    std::set<std::string> out;
    // Includes survive in raw; the "..." spelling is blanked in code, so
    // parse raw but only lines whose stripped form still starts with '#'
    // (i.e. not inside a comment).
    std::size_t pos = 0;
    while (pos < f.raw.size()) {
        std::size_t eol = f.raw.find('\n', pos);
        if (eol == std::string::npos) eol = f.raw.size();
        const std::string_view raw_line(f.raw.data() + pos, eol - pos);
        const std::string_view code_line(f.code.data() + pos, eol - pos);
        const std::size_t hash = skip_ws(code_line, 0);
        if (hash < code_line.size() && code_line[hash] == '#') {
            const std::size_t kw = skip_ws(code_line, hash + 1);
            if (read_ident(code_line, kw) == "include") {
                const std::size_t open = raw_line.find_first_of("<\"", kw);
                if (open != std::string_view::npos) {
                    const char close = raw_line[open] == '<' ? '>' : '"';
                    const std::size_t end = raw_line.find(close, open + 1);
                    if (end != std::string_view::npos) {
                        out.emplace(raw_line.substr(open + 1, end - open - 1));
                    }
                }
            }
        }
        pos = eol + 1;
    }
    return out;
}

void add(std::vector<finding>& out, std::string_view rule, const source_file& f,
         std::size_t offset, std::string message) {
    out.push_back({std::string(rule), f.rel_path, f.line_of(offset),
                   std::move(message)});
}

// --- rule: isa-hermeticity --------------------------------------------------

constexpr std::string_view kIsaHermeticity = "isa-hermeticity";

/// TUs allowed to contain ISA-specific intrinsics and guards: the per-ISA
/// backend translation units and their .inc expansion fragments.
[[nodiscard]] bool hermetic_tu(std::string_view rel) {
    if (rel.ends_with(".inc")) return true;
    const std::string base = basename_of(rel);
    return base == "kernels_avx2.cpp" || base == "kernels_avx512.cpp";
}

void rule_isa_hermeticity(const project& p, std::vector<finding>& out) {
    static constexpr std::array<std::string_view, 12> kIntrinsicHeaders = {
        "immintrin.h", "x86intrin.h",  "x86gprintrin.h", "xmmintrin.h",
        "emmintrin.h", "pmmintrin.h",  "tmmintrin.h",    "smmintrin.h",
        "nmmintrin.h", "wmmintrin.h",  "ammintrin.h",    "arm_neon.h",
    };
    static constexpr std::array<std::string_view, 4> kBannedPrefixes = {
        "__AVX", "__SSE", "_mm_", "_mm256_",
    };
    for (const source_file& f : p.files) {
        if (f.rel_path.ends_with(".md") || hermetic_tu(f.rel_path)) continue;
        // Intrinsics includes (also catches avx*intrin.h sub-headers).
        for (const std::string& inc : direct_includes(f)) {
            const bool sub_header = inc.find("intrin.h") != std::string::npos &&
                                    inc.starts_with("avx");
            if (sub_header ||
                std::find(kIntrinsicHeaders.begin(), kIntrinsicHeaders.end(),
                          inc) != kIntrinsicHeaders.end()) {
                const std::size_t at = f.raw.find(inc);
                add(out, kIsaHermeticity, f, at == std::string::npos ? 0 : at,
                    "intrinsics header <" + inc +
                        "> outside the hermetic backend TUs "
                        "(kernels_avx2.cpp / kernels_avx512.cpp / *.inc)");
            }
        }
        // ISA macros and intrinsic identifiers anywhere in code.
        for (std::size_t i = 0; i < f.code.size();) {
            if (!ident_char(f.code[i]) || (i > 0 && ident_char(f.code[i - 1]))) {
                ++i;
                continue;
            }
            const std::string ident = read_ident(f.code, i);
            for (const std::string_view prefix : kBannedPrefixes) {
                if (std::string_view(ident).starts_with(prefix) ||
                    std::string_view(ident).starts_with("_mm512_")) {
                    add(out, kIsaHermeticity, f, i,
                        "ISA-specific identifier '" + ident +
                            "' outside the hermetic backend TUs");
                    break;
                }
            }
            i += ident.size();
        }
    }
}

// --- rule: kernel-table-parity ----------------------------------------------

constexpr std::string_view kKernelTableParity = "kernel-table-parity";
constexpr std::string_view kRegistryHeader =
    "src/common/include/uhd/common/kernels.hpp";
constexpr std::string_view kRegistryTu = "src/common/kernels.cpp";

struct table_member {
    std::string name;
    std::size_t offset;  ///< of the member name in kernels.hpp
};

/// Function-pointer members of `struct kernel_table`, in declaration order
/// (includes `supported`, excludes the `name` string).
[[nodiscard]] std::vector<table_member> kernel_table_members(const source_file& hdr) {
    std::vector<table_member> members;
    std::size_t pos = find_token(hdr.code, "kernel_table");
    if (pos == std::string_view::npos) return members;
    const std::size_t open = hdr.code.find('{', pos);
    if (open == std::string::npos) return members;
    const std::size_t close = match_brace(hdr.code, open);
    if (close == std::string_view::npos) return members;
    const std::string_view body(hdr.code.data() + open, close - open);
    for (std::size_t i = 0; i + 1 < body.size(); ++i) {
        if (body[i] != '(') continue;
        std::size_t j = skip_ws(body, i + 1);
        if (j >= body.size() || body[j] != '*') continue;
        j = skip_ws(body, j + 1);
        const std::string ident = read_ident(body, j);
        if (ident.empty()) continue;
        const std::size_t at = j;
        j = skip_ws(body, j + ident.size());
        if (j < body.size() && body[j] == ')') members.push_back({ident, open + at});
    }
    return members;
}

struct registry_backend {
    std::string name;
    std::size_t offset;  ///< of the detail::<name>_table token in kernels.cpp
};

/// Backends listed in the kernels.cpp registry (detail::<name>_table()).
[[nodiscard]] std::vector<registry_backend> registry_backends(const source_file& reg) {
    std::vector<registry_backend> backends;
    static constexpr std::string_view kDetail = "detail::";
    for (std::size_t pos = reg.code.find(kDetail); pos != std::string::npos;
         pos = reg.code.find(kDetail, pos + 1)) {
        const std::string ident = read_ident(reg.code, pos + kDetail.size());
        if (!ident.ends_with("_table")) continue;
        const std::string name = ident.substr(0, ident.size() - 6);
        if (std::none_of(backends.begin(), backends.end(),
                         [&](const registry_backend& b) { return b.name == name; })) {
            backends.push_back({name, pos});
        }
    }
    return backends;
}

/// [open, close) offsets of the `kernel_table <ident>{...}` aggregate
/// initializer body in a backend TU; npos/npos when absent. Skips
/// reference/pointer declarations (`const kernel_table& accessor() {...}`).
[[nodiscard]] std::pair<std::size_t, std::size_t> table_initializer(
    const source_file& tu) {
    for (std::size_t pos = find_token(tu.code, "kernel_table");
         pos != std::string_view::npos;
         pos = find_token(tu.code, "kernel_table", pos + 1)) {
        std::size_t j = skip_ws(tu.code, pos + std::string_view("kernel_table").size());
        if (j >= tu.code.size() || !ident_char(tu.code[j])) continue;
        const std::string var = read_ident(tu.code, j);
        j = skip_ws(tu.code, j + var.size());
        if (j < tu.code.size() && tu.code[j] == '=') j = skip_ws(tu.code, j + 1);
        if (j >= tu.code.size() || tu.code[j] != '{') continue;
        const std::size_t close = match_brace(tu.code, j);
        if (close == std::string_view::npos) continue;
        return {j, close};
    }
    return {std::string_view::npos, std::string_view::npos};
}

/// Top-level comma-separated entry count of an aggregate initializer body
/// (trailing blank entries from a trailing comma are dropped; the blanked
/// name string literal still counts as an entry).
[[nodiscard]] std::size_t initializer_entries(std::string_view body) {
    std::vector<bool> blank_entries;
    int depth = 0;
    bool nonblank = false;
    for (std::size_t i = 1; i + 1 < body.size(); ++i) {  // skip outer braces
        const char c = body[i];
        if (c == '{' || c == '(' || c == '[') ++depth;
        if (c == '}' || c == ')' || c == ']') --depth;
        if (depth == 0 && c == ',') {
            blank_entries.push_back(!nonblank);
            nonblank = false;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c)) == 0) nonblank = true;
    }
    blank_entries.push_back(!nonblank);
    while (!blank_entries.empty() && blank_entries.back()) blank_entries.pop_back();
    // The leading name-string entry is blanked by the lexer but sits
    // before other entries, so it survives the trailing-blank trim.
    return blank_entries.size();
}

void rule_kernel_table_parity(const project& p, std::vector<finding>& out) {
    const source_file* hdr = p.find(kRegistryHeader);
    const source_file* reg = p.find(kRegistryTu);
    if (hdr == nullptr && reg == nullptr) return;  // tree has no registry
    if (hdr == nullptr || reg == nullptr) {
        const source_file& present = hdr != nullptr ? *hdr : *reg;
        add(out, kKernelTableParity, present, 0,
            std::string("kernel registry is half-present: missing ") +
                std::string(hdr == nullptr ? kRegistryHeader : kRegistryTu));
        return;
    }
    const std::vector<table_member> members = kernel_table_members(*hdr);
    if (members.empty()) {
        add(out, kKernelTableParity, *hdr, 0,
            "could not parse any function-pointer member out of struct "
            "kernel_table");
        return;
    }
    const std::vector<registry_backend> backends = registry_backends(*reg);
    if (backends.empty()) {
        add(out, kKernelTableParity, *reg, 0,
            "kernels.cpp registry lists no detail::<backend>_table entries");
        return;
    }
    if (std::none_of(backends.begin(), backends.end(),
                     [](const registry_backend& b) { return b.name == "scalar"; })) {
        add(out, kKernelTableParity, *reg, 0,
            "the pinned scalar oracle backend is not in the registry");
    }

    // The .inc fragments backend TUs may expand their kernels from.
    std::vector<const source_file*> common_incs;
    for (const source_file& f : p.files) {
        if (f.rel_path.starts_with("src/common/") && f.rel_path.ends_with(".inc")) {
            common_incs.push_back(&f);
        }
    }

    for (const registry_backend& backend : backends) {
        const std::string tu_path = "src/common/kernels_" + backend.name + ".cpp";
        const source_file* tu = p.find(tu_path);
        if (tu == nullptr) {
            add(out, kKernelTableParity, *reg, backend.offset,
                "backend '" + backend.name + "' is registered but " + tu_path +
                    " does not exist");
            continue;
        }
        const auto [open, close] = table_initializer(*tu);
        if (open == std::string_view::npos) {
            add(out, kKernelTableParity, *tu, 0,
                "backend '" + backend.name +
                    "' has no kernel_table aggregate initializer");
            continue;
        }
        const std::string_view body(tu->code.data() + open, close - open);
        const std::size_t expected = 1 + members.size();  // name + fn pointers
        const std::size_t got = initializer_entries(body);
        if (got != expected) {
            add(out, kKernelTableParity, *tu, open,
                "backend '" + backend.name + "' kernel_table initializer has " +
                    std::to_string(got) + " slots, expected " +
                    std::to_string(expected) + " (name + " +
                    std::to_string(members.size()) + " members) — a kernel slot "
                    "was dropped or added without updating kernels.hpp");
        }
        const std::size_t null_slot = find_token(body, "nullptr");
        if (null_slot != std::string_view::npos) {
            add(out, kKernelTableParity, *tu, open + null_slot,
                "backend '" + backend.name +
                    "' initializes a kernel slot to nullptr");
        }
        for (const table_member& member : members) {
            if (find_token(tu->code, member.name) != std::string_view::npos) continue;
            const bool in_inc = std::any_of(
                common_incs.begin(), common_incs.end(),
                [&](const source_file* inc) {
                    return find_token(inc->code, member.name) != std::string_view::npos;
                });
            if (!in_inc) {
                add(out, kKernelTableParity, *tu, 0,
                    "backend '" + backend.name + "' never names kernel '" +
                        member.name + "' — missing definition or initializer slot");
            }
        }
    }

    // Every kernel slot needs a library caller: a slot that only tests or
    // benches name costs a body per backend and buys nothing at runtime.
    for (const table_member& member : members) {
        if (member.name == "supported") continue;
        const bool called = std::any_of(
            p.files.begin(), p.files.end(), [&](const source_file& f) {
                return f.rel_path.starts_with("src/") &&
                       !f.rel_path.starts_with("src/common/") &&
                       find_token(f.code, member.name) != std::string_view::npos;
            });
        if (!called) {
            add(out, kKernelTableParity, *hdr, member.offset,
                "kernel slot '" + member.name +
                    "' has no library caller — no file under src/ outside "
                    "src/common/ names it; delete the slot or call it");
        }
    }
}

// --- rule: dispatch-only ----------------------------------------------------

constexpr std::string_view kDispatchOnly = "dispatch-only";

/// Files that legitimately name the backend detail namespace: the registry
/// TU and header, the per-ISA TUs/fragments, and the oracle suites that
/// pit backends against the pinned references.
[[nodiscard]] bool detail_allowed(std::string_view rel) {
    if (rel.starts_with("src/common/kernels")) return true;  // .cpp/.hpp/.inc
    if (rel == kRegistryHeader) return true;
    return rel == "tests/test_simd_kernels.cpp" ||
           rel == "tests/test_block_kernels.cpp" ||
           rel == "tests/test_backend_dispatch.cpp";
}

/// Files that may repin the process-wide backend: the registry itself and
/// the test/bench harnesses that sweep backends in-process. Library and
/// example code must inherit UHD_BACKEND.
[[nodiscard]] bool force_backend_allowed(std::string_view rel) {
    if (rel.starts_with("src/common/kernels")) return true;
    if (rel == kRegistryHeader) return true;
    return rel.starts_with("tests/") || rel.starts_with("bench/");
}

void rule_dispatch_only(const project& p, std::vector<finding>& out) {
    // Accessor names come from the registry when parseable, with the known
    // set as fallback so the rule still bites in partial trees.
    std::vector<std::string> accessors = {"scalar_table", "swar_table",
                                          "avx2_table", "avx512_table"};
    if (const source_file* reg = p.find(kRegistryTu)) {
        for (const registry_backend& b : registry_backends(*reg)) {
            const std::string accessor = b.name + "_table";
            if (std::find(accessors.begin(), accessors.end(), accessor) ==
                accessors.end()) {
                accessors.push_back(accessor);
            }
        }
    }
    for (const source_file& f : p.files) {
        if (f.rel_path.ends_with(".md")) continue;
        if (!detail_allowed(f.rel_path)) {
            const std::size_t at = f.code.find("kernels::detail");
            if (at != std::string::npos) {
                add(out, kDispatchOnly, f, at,
                    "names the backend namespace uhd::kernels::detail — call "
                    "sites must go through the uhd::kernels dispatch layer");
            }
            for (const std::string& accessor : accessors) {
                const std::size_t acc = find_token(f.code, accessor);
                if (acc != std::string_view::npos) {
                    add(out, kDispatchOnly, f, acc,
                        "names backend table accessor '" + accessor +
                            "' directly instead of dispatching through "
                            "uhd::kernels");
                }
            }
        }
        if (!force_backend_allowed(f.rel_path)) {
            const std::size_t at = find_token(f.code, "force_backend");
            if (at != std::string_view::npos) {
                add(out, kDispatchOnly, f, at,
                    "calls uhd::kernels::force_backend — only test/bench "
                    "harnesses may repin the process-wide backend");
            }
        }
    }
}

// --- rule: bench-schema-sync ------------------------------------------------

constexpr std::string_view kBenchSchemaSync = "bench-schema-sync";
constexpr std::string_view kBenchReadme = "bench/README.md";
constexpr std::string_view kSchemaMarker = "uhd-lint:bench-schema";

/// Parse the `<!-- uhd-lint:bench-schema -->` markdown table out of
/// bench/README.md: rows `| name | N |` (backticks tolerated) until the
/// first non-table, non-blank line. Returns marker offset via out-param;
/// npos when the marker is missing.
[[nodiscard]] std::map<std::string, long> documented_schemas(const source_file& doc,
                                                             std::size_t& marker) {
    std::map<std::string, long> versions;
    marker = doc.raw.find(kSchemaMarker);
    if (marker == std::string::npos) return versions;
    std::size_t pos = doc.raw.find('\n', marker);
    while (pos != std::string::npos && pos + 1 < doc.raw.size()) {
        const std::size_t begin = pos + 1;
        std::size_t end = doc.raw.find('\n', begin);
        if (end == std::string::npos) end = doc.raw.size();
        const std::string_view line(doc.raw.data() + begin, end - begin);
        const std::size_t first = skip_ws(line, 0);
        if (first >= line.size()) {  // blank line between marker and table
            pos = end;
            continue;
        }
        if (line[first] != '|') break;  // table ended
        // Split the first two cells.
        std::vector<std::string> cells;
        std::string cell;
        for (std::size_t i = first + 1; i < line.size(); ++i) {
            if (line[i] == '|') {
                cells.push_back(cell);
                cell.clear();
            } else if (line[i] != ' ' && line[i] != '`') {
                cell += line[i];
            }
        }
        if (cells.size() >= 2 && !cells[0].empty() && !cells[1].empty() &&
            std::all_of(cells[1].begin(), cells[1].end(), [](char c) {
                return std::isdigit(static_cast<unsigned char>(c)) != 0;
            })) {
            versions[cells[0]] = std::stol(cells[1]);
        }
        pos = end;
    }
    return versions;
}

void rule_bench_schema_sync(const project& p, std::vector<finding>& out) {
    struct emission {
        const source_file* file;
        std::size_t offset;
        std::string bench;
        long version;
    };
    std::vector<emission> emissions;
    // Matches both emitted-JSON string literals ( \"bench\": \"encode\" )
    // and plain JSON text in fixtures ( "bench": "encode" ).
    static const std::regex bench_re(
        R"re(\\?"bench\\?"\s*:\s*\\?"([A-Za-z0-9_]+)\\?")re");
    static const std::regex version_re(
        R"re(\\?"schema_version\\?"\s*:\s*([0-9]+))re");
    for (const source_file& f : p.files) {
        if (!f.rel_path.starts_with("bench/") || !f.rel_path.ends_with(".cpp")) {
            continue;
        }
        for (std::sregex_iterator it(f.raw.begin(), f.raw.end(), bench_re), end;
             it != end; ++it) {
            const std::size_t at = static_cast<std::size_t>(it->position());
            const std::size_t window_end =
                std::min(f.raw.size(), at + std::size_t{400});
            std::smatch ver;
            const std::string window = f.raw.substr(at, window_end - at);
            if (std::regex_search(window, ver, version_re)) {
                emissions.push_back({&f, at + static_cast<std::size_t>(ver.position()),
                                     (*it)[1].str(), std::stol(ver[1].str())});
            } else {
                add(out, kBenchSchemaSync, f, at,
                    "emits bench '" + (*it)[1].str() +
                        "' without a schema_version nearby");
            }
        }
    }

    const source_file* doc = p.find(kBenchReadme);
    if (doc == nullptr) {
        if (!emissions.empty()) {
            add(out, kBenchSchemaSync, *emissions.front().file, 0,
                "bench emits schema JSON but bench/README.md does not exist");
        }
        return;
    }
    std::size_t marker = 0;
    const std::map<std::string, long> documented = documented_schemas(*doc, marker);
    if (marker == std::string::npos) {
        if (!emissions.empty()) {
            add(out, kBenchSchemaSync, *doc, 0,
                std::string("bench/README.md lacks the '") +
                    std::string(kSchemaMarker) + "' schema table");
        }
        return;
    }
    std::set<std::string> emitted_names;
    for (const emission& e : emissions) {
        emitted_names.insert(e.bench);
        const auto it = documented.find(e.bench);
        if (it == documented.end()) {
            add(out, kBenchSchemaSync, *e.file, e.offset,
                "bench '" + e.bench + "' (schema_version " +
                    std::to_string(e.version) +
                    ") is not documented in bench/README.md");
        } else if (it->second != e.version) {
            add(out, kBenchSchemaSync, *e.file, e.offset,
                "bench '" + e.bench + "' emits schema_version " +
                    std::to_string(e.version) + " but bench/README.md documents " +
                    std::to_string(it->second));
        }
    }
    for (const auto& [name, version] : documented) {
        if (emitted_names.count(name) == 0) {
            add(out, kBenchSchemaSync, *doc, marker,
                "bench/README.md documents bench '" + name + "' (schema_version " +
                    std::to_string(version) + ") but no bench/*.cpp emits it");
        }
    }
}

// --- rule: header-hygiene ---------------------------------------------------

constexpr std::string_view kHeaderHygiene = "header-hygiene";

[[nodiscard]] bool public_header(std::string_view rel) {
    return rel.starts_with("src/") && rel.ends_with(".hpp") &&
           rel.find("/include/uhd/") != std::string_view::npos;
}

struct std_mapping {
    std::string_view symbol;  ///< identifier right after std::
    std::string_view header;
};

/// Conservative std-symbol → required-header map. Only unmistakable names
/// are listed, so every hit is a genuine include-what-you-use violation.
constexpr std::array<std_mapping, 61> kStdMap = {{
    {"uint8_t", "cstdint"},       {"uint16_t", "cstdint"},
    {"uint32_t", "cstdint"},      {"uint64_t", "cstdint"},
    {"int8_t", "cstdint"},        {"int16_t", "cstdint"},
    {"int32_t", "cstdint"},       {"int64_t", "cstdint"},
    {"size_t", "cstddef"},        {"ptrdiff_t", "cstddef"},
    {"byte", "cstddef"},
    {"string", "string"},         {"string_view", "string_view"},
    {"vector", "vector"},         {"span", "span"},
    {"array", "array"},           {"atomic", "atomic"},
    {"optional", "optional"},     {"function", "functional"},
    {"shared_ptr", "memory"},     {"unique_ptr", "memory"},
    {"weak_ptr", "memory"},       {"make_shared", "memory"},
    {"make_unique", "memory"},
    {"move", "utility"},          {"forward", "utility"},
    {"swap", "utility"},          {"pair", "utility"},
    {"exchange", "utility"},
    {"mutex", "mutex"},           {"lock_guard", "mutex"},
    {"unique_lock", "mutex"},     {"scoped_lock", "mutex"},
    {"thread", "thread"},         {"jthread", "thread"},
    {"condition_variable", "condition_variable"},
    {"future", "future"},         {"promise", "future"},
    {"chrono", "chrono"},
    {"min", "algorithm"},         {"max", "algorithm"},
    {"clamp", "algorithm"},       {"fill", "algorithm"},
    {"copy", "algorithm"},        {"sort", "algorithm"},
    {"numeric_limits", "limits"},
    {"runtime_error", "stdexcept"},
    {"invalid_argument", "stdexcept"},
    {"out_of_range", "stdexcept"},
    {"logic_error", "stdexcept"},
    {"memcpy", "cstring"},        {"memset", "cstring"},
    {"memcmp", "cstring"},
    {"popcount", "bit"},          {"countr_zero", "bit"},
    {"countl_zero", "bit"},       {"bit_cast", "bit"},
    {"ostringstream", "sstream"}, {"istringstream", "sstream"},
    {"map", "map"},               {"unordered_map", "unordered_map"},
}};

void rule_header_hygiene(const project& p, std::vector<finding>& out) {
    for (const source_file& f : p.files) {
        if (!public_header(f.rel_path)) continue;

        // Include guard: first two preprocessor directives must be
        // #ifndef/#define of the same macro (or #pragma once first).
        std::vector<std::pair<std::size_t, std::string>> directives;
        std::size_t pos = 0;
        while (pos < f.code.size() && directives.size() < 2) {
            std::size_t eol = f.code.find('\n', pos);
            if (eol == std::string::npos) eol = f.code.size();
            const std::string_view line(f.code.data() + pos, eol - pos);
            const std::size_t hash = skip_ws(line, 0);
            if (hash < line.size() && line[hash] == '#') {
                directives.emplace_back(pos, std::string(line.substr(hash)));
            }
            pos = eol + 1;
        }
        bool guarded = false;
        if (!directives.empty()) {
            const std::string& first = directives[0].second;
            if (first.find("pragma") != std::string::npos &&
                first.find("once") != std::string::npos) {
                guarded = true;
            } else if (directives.size() >= 2 &&
                       first.find("ifndef") != std::string::npos) {
                const std::size_t m1 = skip_ws(first, first.find("ifndef") + 6);
                const std::string macro = read_ident(first, m1);
                const std::string& second = directives[1].second;
                const std::size_t def = second.find("define");
                if (!macro.empty() && def != std::string::npos) {
                    const std::size_t m2 = skip_ws(second, def + 6);
                    guarded = read_ident(second, m2) == macro;
                }
            }
        }
        if (!guarded) {
            add(out, kHeaderHygiene, f,
                directives.empty() ? 0 : directives[0].first,
                "public header lacks an include guard (#ifndef/#define pair "
                "or #pragma once before any other directive)");
        }

        // Include-what-you-use over the std symbol map.
        const std::set<std::string> includes = direct_includes(f);
        std::set<std::string> reported;
        static constexpr std::string_view kStd = "std::";
        for (std::size_t at = f.code.find(kStd); at != std::string::npos;
             at = f.code.find(kStd, at + 1)) {
            if (at > 0 && ident_char(f.code[at - 1])) continue;
            const std::string symbol = read_ident(f.code, at + kStd.size());
            for (const std_mapping& m : kStdMap) {
                if (symbol != m.symbol) continue;
                const std::string header(m.header);
                if (includes.count(header) == 0 &&
                    reported.insert(header).second) {
                    add(out, kHeaderHygiene, f, at,
                        "uses std::" + symbol + " without directly including <" +
                            header + "> (self-containment)");
                }
                break;
            }
        }
    }
}

// --- rule: test-only-header -------------------------------------------------
//
// A public header src/<m>/include/uhd/<m>/<name>.hpp is reached when a
// scanned file outside tests/ includes it directly; its own TU,
// src/<m>/<name>.cpp, does not count. Another header counts, since it is a
// scanned file too. An unreached header is library code only tests use, so
// it is a finding unless it carries a header marker: the test-reference
// marker and a reason in the comment block before its first preprocessor
// directive (a reference the tests compare against). A marked header that
// is reached is a finding too, so a marker cannot go stale. A marker further
// down a header is a function marker; unreached-function judges it.
//
// Limit: perfbench/ is not scanned, so a header that only perfbench
// includes would be flagged. No header is in that position today.

constexpr std::string_view kTestOnlyHeader = "test-only-header";
constexpr std::string_view kTestReferenceMarker = "uhd-lint: test-reference";

/// Offset of the first test-reference marker in f.raw[from, to) that sits
/// in a comment and is followed by a reason on its line; npos when none.
[[nodiscard]] std::size_t test_reference_marker(const source_file& f,
                                                std::size_t from = 0,
                                                std::size_t to = std::string::npos) {
    for (std::size_t at = f.raw.find(kTestReferenceMarker, from); at < to;
         at = f.raw.find(kTestReferenceMarker, at + 1)) {
        if (f.code[at] != ' ') continue;  // not blanked: outside a comment
        const std::size_t begin = at + kTestReferenceMarker.size();
        const std::size_t eol = std::min(f.raw.find('\n', begin), f.raw.size());
        const std::string_view reason(f.raw.data() + begin, eol - begin);
        if (std::any_of(reason.begin(), reason.end(), [](char c) {
                return std::isalpha(static_cast<unsigned char>(c)) != 0;
            })) {
            return at;
        }
    }
    return std::string::npos;
}

/// Offset of the first line of f whose code starts with '#' (a header's
/// include guard); raw.size() when there is none.
[[nodiscard]] std::size_t first_directive(const source_file& f) {
    for (std::size_t pos = 0; pos < f.code.size();) {
        const std::size_t eol = std::min(f.code.find('\n', pos), f.code.size());
        const std::size_t text = skip_ws(f.code, pos);
        if (text < eol && f.code[text] == '#') return pos;
        pos = eol + 1;
    }
    return f.raw.size();
}

/// Offset of the header marker of f, a marker in the comment block before
/// its include guard; npos when there is none.
[[nodiscard]] std::size_t header_marker(const source_file& f) {
    return test_reference_marker(f, 0, first_directive(f));
}

void rule_test_only_header(const project& p, std::vector<finding>& out) {
    // Include spelling -> the files outside tests/ that include it directly.
    std::map<std::string, std::vector<std::string_view>> includers;
    for (const source_file& f : p.files) {
        if (f.rel_path.starts_with("tests/") || f.rel_path.ends_with(".md")) continue;
        for (const std::string& inc : direct_includes(f)) {
            includers[inc].push_back(f.rel_path);
        }
    }
    static constexpr std::string_view kInclude = "/include/";
    for (const source_file& f : p.files) {
        if (!public_header(f.rel_path)) continue;
        const std::size_t root = f.rel_path.find(kInclude);
        const std::string spelling = f.rel_path.substr(root + kInclude.size());
        const std::string name = basename_of(f.rel_path);
        const std::string own_tu = f.rel_path.substr(0, root) + "/" +
                                   name.substr(0, name.size() - 4) + ".cpp";
        const auto it = includers.find(spelling);
        const bool reached =
            it != includers.end() &&
            std::any_of(it->second.begin(), it->second.end(),
                        [&](std::string_view by) { return by != own_tu; });
        const std::size_t marker = header_marker(f);
        if (!reached && marker == std::string::npos) {
            add(out, kTestOnlyHeader, f, 0,
                "no file outside tests/ includes this header (its own TU " + own_tu +
                    " aside): delete the code only tests reach, or mark a test "
                    "reference with a '" + std::string(kTestReferenceMarker) +
                    " <reason>' comment before its include guard");
        } else if (reached && marker != std::string::npos) {
            add(out, kTestOnlyHeader, f, marker,
                "stale '" + std::string(kTestReferenceMarker) +
                    "' marker: a file outside tests/ includes this header");
        }
    }
}

// --- rule: unreached-function ----------------------------------------------
//
// Runs only when the project carries the reach listings (uhd_lint
// --library-symbols/--product-symbols). The products are built with
// inlining off, one section per function and --gc-sections, so a library
// function's symbol survives in a binary only if some product path calls
// it. The library listing comes from libuhd.a built once more with
// -fkeep-inline-functions as well, so each library TU also emits every
// inline function of the headers it includes. The rule judges
//   - every external function of libuhd.a: a `T` line;
//   - every header function: a `W`, `T` or `t` line whose `nm -l` location
//     is a public header src/<m>/include/uhd/<m>/<name>.hpp.
// A judged function is reached when its demangled name appears in the
// product listing. One demangled name is one function: a constructor's
// complete- and base-object symbols, or the copies of one inline function
// that several TUs emit, count once, and one linked symbol reaches it.
//
// Two kinds of header function are skipped: an implicitly defined
// constructor or destructor, which nm -l places on its class head, where no
// `Name(` appears, or on its `= default` line (GCC may build a defaulted one
// in place even at -O0, so no product need hold it); and a
// [[gnu::always_inline]] definition, which no binary holds out of line.
//
// An unreached function is a finding at its definition unless it is
// marked: the comment lines directly above the definition line carry the
// test-reference marker with a reason (a function marker), or the header
// that holds it, or the public header src/<m>/include/uhd/<m>/<name>.hpp of
// its TU src/<m>/<name>.cpp, carries a header marker (a module kept as a
// test reference). A function marker on a function that a product links is
// a stale marker, a finding at the marker. So is a function marker in a
// src/**/*.cpp file or a public header that sits above no judged function
// (its function deleted, moved, internal or skipped): it keeps nothing.
// Paths in the library listing resolve to the scanned file they end with.
//
// Limits: a template that no library TU instantiates, a defaulted function
// and a function of a header that no library TU includes emit no symbol
// into the library listing, so they are out of this rule's sight.

constexpr std::string_view kUnreachedFunction = "unreached-function";

/// One defined symbol of an `nm -C [-l]` line:
/// "<hex address> <type> <name>[\t<file>:<line>]".
struct nm_symbol {
    char type = 0;
    std::string_view name;
    std::string_view location;  ///< empty without -l or debug info
};

/// Parse one listing line; false for archive-member and binary headers,
/// blank lines, and symbols without an address.
[[nodiscard]] bool parse_nm_line(std::string_view line, nm_symbol& out) {
    std::size_t i = 0;
    while (i < line.size() && std::isxdigit(static_cast<unsigned char>(line[i])) != 0) ++i;
    if (i == 0 || i + 3 > line.size() || line[i] != ' ' || line[i + 2] != ' ') {
        return false;
    }
    out.type = line[i + 1];
    const std::string_view rest = line.substr(i + 3);
    const std::size_t tab = rest.find('\t');
    out.name = rest.substr(0, tab);
    out.location = tab == std::string_view::npos ? std::string_view{} : rest.substr(tab + 1);
    return true;
}

template <typename Visit>
void for_each_nm_symbol(std::string_view listing, Visit visit) {
    nm_symbol sym;
    for (std::size_t pos = 0; pos < listing.size();) {
        const std::size_t eol = std::min(listing.find('\n', pos), listing.size());
        if (parse_nm_line(listing.substr(pos, eol - pos), sym)) visit(sym);
        pos = eol + 1;
    }
}

/// The scanned file that `path` names: its relative path, or the longest
/// relative path it ends with after a '/'. nullptr when none.
[[nodiscard]] const source_file* file_named(const project& p, std::string_view path) {
    const source_file* best = nullptr;
    for (const source_file& f : p.files) {
        const bool names =
            path == f.rel_path ||
            (path.ends_with(f.rel_path) && path[path.size() - f.rel_path.size() - 1] == '/');
        if (names && (best == nullptr || f.rel_path.size() > best->rel_path.size())) {
            best = &f;
        }
    }
    return best;
}

/// Offset of the start of 1-based line `line` of f; raw.size() past the end.
[[nodiscard]] std::size_t line_start(const source_file& f, std::size_t line) {
    std::size_t pos = 0;
    for (std::size_t l = 1; l < line && pos < f.raw.size(); ++l) {
        pos = std::min(f.raw.find('\n', pos), f.raw.size()) + 1;
    }
    return std::min(pos, f.raw.size());
}

/// Offset of a test-reference marker in the run of `//` comment lines
/// directly above line `line` of f; npos when there is none.
[[nodiscard]] std::size_t function_marker(const source_file& f, std::size_t line) {
    const std::size_t end = line_start(f, line);
    std::size_t begin = end;
    while (begin > 0) {
        const std::size_t newline = begin - 1;  // ends the line above `begin`
        const std::size_t prev =
            newline == 0 ? std::string::npos : f.raw.rfind('\n', newline - 1);
        const std::size_t above = prev == std::string::npos ? 0 : prev + 1;
        const std::size_t text = skip_ws(f.raw, above);
        if (text >= newline || f.raw.compare(text, 2, "//") != 0) break;
        begin = above;
    }
    return begin == end ? std::string::npos : test_reference_marker(f, begin, end);
}

/// The public header src/<m>/include/uhd/<m>/<name>.hpp of TU
/// src/<m>/<name>.cpp, or `file` itself when it is a public header;
/// nullptr when there is none.
[[nodiscard]] const source_file* own_header(const project& p, const source_file& file) {
    if (public_header(file.rel_path)) return &file;
    const std::string_view tu = file.rel_path;
    if (!tu.starts_with("src/") || !tu.ends_with(".cpp")) return nullptr;
    const std::size_t slash = tu.find('/', 4);
    if (slash == std::string_view::npos || tu.find('/', slash + 1) != std::string_view::npos) {
        return nullptr;
    }
    const std::string_view module = tu.substr(4, slash - 4);
    const std::string_view name = tu.substr(slash + 1, tu.size() - slash - 5);
    return p.find("src/" + std::string(module) + "/include/uhd/" + std::string(module) +
                  "/" + std::string(name) + ".hpp");
}

/// The unqualified name of a demangled constructor or destructor symbol:
/// "b" for "a::b<int>::b(int)", "~b" for "a::b::~b()"; empty for any other
/// symbol.
[[nodiscard]] std::string_view special_member_name(std::string_view symbol) {
    // The parameter list is the last balanced (...) group.
    std::size_t open = symbol.rfind(')');
    if (open == std::string_view::npos) return {};
    for (int depth = 0;; --open) {
        if (symbol[open] == ')') ++depth;
        if (symbol[open] == '(' && --depth == 0) break;
        if (open == 0) return {};
    }
    const std::string_view head = symbol.substr(0, open);
    const std::size_t scope = head.rfind("::");
    if (scope == std::string_view::npos) return {};
    const std::string_view name = head.substr(scope + 2);
    std::string_view owner = head.substr(0, scope);
    const std::size_t outer = owner.rfind("::");
    if (outer != std::string_view::npos) owner = owner.substr(outer + 2);
    owner = owner.substr(0, owner.find('<'));
    const std::string_view bare = name.starts_with('~') ? name.substr(1) : name;
    return !bare.empty() && bare == owner ? name : std::string_view{};
}

/// True when a header function's definition at line `line` of f is one the
/// rule skips: an implicitly defined constructor or destructor (its line
/// names no `Name(`, or declares it `= default`), or a
/// [[gnu::always_inline]] definition (the attribute in the declaration that
/// ends on that line).
[[nodiscard]] bool skipped_header_function(const source_file& f, std::string_view symbol,
                                           std::size_t line) {
    const std::size_t begin = line_start(f, line);
    const std::size_t eol = std::min(f.code.find('\n', begin), f.code.size());
    const std::string_view text(f.code.data() + begin, eol - begin);
    const std::string_view name = special_member_name(symbol);
    if (!name.empty()) {
        bool named = false;
        for (std::size_t at = text.find(name); at != std::string_view::npos && !named;
             at = text.find(name, at + 1)) {
            const std::size_t after = skip_ws(text, at + name.size());
            named = (at == 0 || !ident_char(text[at - 1])) && after < text.size() &&
                    text[after] == '(';
        }
        const std::size_t defaulted = find_token(text, "default");
        const std::size_t before = defaulted == std::string_view::npos || defaulted == 0
                                       ? std::string_view::npos
                                       : text.find_last_not_of(" \t", defaulted - 1);
        if (!named || (before != std::string_view::npos && text[before] == '=')) return true;
    }
    // The declaration starts after the last ';', '{' or '}' above its line.
    const std::size_t decl = f.code.find_last_of(";{}", begin == 0 ? 0 : begin - 1);
    const std::size_t from = decl == std::string::npos || begin == 0 ? 0 : decl + 1;
    const std::size_t attribute = find_token(f.code, "always_inline", from);
    return attribute != std::string::npos && attribute < eol;
}

void rule_unreached_function(const project& p, std::vector<finding>& out) {
    if (p.library_symbols.empty() && p.product_symbols.empty()) return;
    std::set<std::string_view> linked;
    for_each_nm_symbol(p.product_symbols, [&](const nm_symbol& s) { linked.insert(s.name); });
    // Demangled name -> its first symbol: every T line, and every W or t
    // line that nm -l may place in a public header.
    std::map<std::string_view, nm_symbol> functions;
    for_each_nm_symbol(p.library_symbols, [&](const nm_symbol& s) {
        if (s.type == 'T' || ((s.type == 'W' || s.type == 't') &&
                              s.location.find("/include/uhd/") != std::string_view::npos)) {
            functions.emplace(s.name, s);
        }
    });
    // (file, offset) of every marker that sits above a judged function.
    std::set<std::pair<const source_file*, std::size_t>> attached;
    for (const auto& [name, symbol] : functions) {
        const std::string_view location = symbol.location;
        const std::size_t colon = location.rfind(':');
        const std::string_view path = location.substr(0, colon);
        std::size_t line = 0;  // stays 0 without a line number
        if (colon != std::string_view::npos) {
            std::from_chars(location.data() + colon + 1, location.data() + location.size(),
                            line);
        }
        const source_file* f = file_named(p, path);
        const bool in_header = f != nullptr && public_header(f->rel_path);
        if (!in_header && symbol.type != 'T') continue;
        if (in_header && line != 0 && skipped_header_function(*f, name, line)) continue;
        const bool reached = linked.contains(name);
        const std::size_t marker =
            f != nullptr && line != 0 ? function_marker(*f, line) : std::string::npos;
        if (marker != std::string::npos) attached.emplace(f, marker);
        const source_file* header = f != nullptr ? own_header(p, *f) : nullptr;
        const bool module_marked =
            header != nullptr && header_marker(*header) != std::string::npos;
        if (!reached && marker == std::string::npos && !module_marked) {
            out.push_back({std::string(kUnreachedFunction),
                           f != nullptr ? f->rel_path : std::string(path), line,
                           "no product binary links " + std::string(name) +
                               ": delete it, or mark a test reference with a '// " +
                               std::string(kTestReferenceMarker) +
                               " <reason>' comment above its definition"});
        } else if (reached && marker != std::string::npos) {
            add(out, kUnreachedFunction, *f, marker,
                "stale '" + std::string(kTestReferenceMarker) +
                    "' marker: a product binary links " + std::string(name));
        }
    }
    for (const source_file& f : p.files) {
        const bool tu = f.rel_path.starts_with("src/") && f.rel_path.ends_with(".cpp");
        if (!tu && !public_header(f.rel_path)) continue;
        // A header's marker block before its include guard is its header
        // marker, which test-only-header judges.
        const std::size_t from = tu ? 0 : first_directive(f);
        for (std::size_t at = test_reference_marker(f, from); at != std::string::npos;
             at = test_reference_marker(f, at + 1)) {
            if (attached.contains({&f, at})) continue;
            add(out, kUnreachedFunction, f, at,
                "stale '" + std::string(kTestReferenceMarker) +
                    "' marker: it sits above no function of the library listing");
        }
    }
}

constexpr std::array<rule, 7> kRules = {{
    {kIsaHermeticity,
     "intrinsics headers and __AVX*/__SSE*/_mm* tokens only in the "
     "designated backend TUs",
     rule_isa_hermeticity},
    {kKernelTableParity,
     "every kernel_table member has a slot and definition in every "
     "registered backend TU (incl. the pinned scalar oracle) and a library "
     "caller outside src/common/",
     rule_kernel_table_parity},
    {kDispatchOnly,
     "no source outside the registry TUs names uhd::kernels::detail or "
     "repins the backend",
     rule_dispatch_only},
    {kBenchSchemaSync,
     "bench/*.cpp schema_version emissions match the bench/README.md table",
     rule_bench_schema_sync},
    {kHeaderHygiene,
     "public headers carry include guards and directly include the std "
     "headers they use",
     rule_header_hygiene},
    {kTestOnlyHeader,
     "every public header is included outside tests/ (its own TU aside) "
     "unless header-marked as a test reference, and no marked header is",
     rule_test_only_header},
    {kUnreachedFunction,
     "given the reach listings, every external libuhd.a function and every "
     "public-header inline function is linked into a product unless marked "
     "as a test reference, and every marker sits on an unlinked one",
     rule_unreached_function},
}};

} // namespace

std::span<const rule> all_rules() noexcept { return kRules; }

std::vector<finding> run_rules(const project& p, std::span<const std::string> only) {
    std::vector<finding> findings;
    for (const rule& r : kRules) {
        const bool selected =
            only.empty() ||
            std::find(only.begin(), only.end(), std::string(r.id)) != only.end();
        if (selected) r.run(p, findings);
    }
    for (const std::string& name : only) {
        if (std::none_of(kRules.begin(), kRules.end(),
                         [&](const rule& r) { return r.id == name; })) {
            throw std::runtime_error("uhd_lint: unknown rule '" + name + "'");
        }
    }
    std::sort(findings.begin(), findings.end(),
              [](const finding& a, const finding& b) {
                  if (a.file != b.file) return a.file < b.file;
                  if (a.line != b.line) return a.line < b.line;
                  return a.rule < b.rule;
              });
    return findings;
}

} // namespace uhd_lint

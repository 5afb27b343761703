// The five project-invariant rules of uhd_lint.
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
#include <map>
#include <regex>
#include <set>
#include <stdexcept>
#include <string>
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

constexpr std::array<rule, 5> kRules = {{
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

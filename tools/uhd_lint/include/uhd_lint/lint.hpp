// uhd_lint — the project-invariant static analyzer.
//
// The repo's architectural contracts (hermetic per-ISA kernel TUs, a
// dispatch-only kernel registry with a pinned scalar oracle per slot,
// versioned bench JSON schemas, self-contained public headers) used to be
// enforced by comments and reviewer memory. This analyzer makes them
// machine-checked: it loads the source tree into a comment/string-stripped
// token view and runs one pass per invariant, reporting findings as
// `file:line: [rule] message` and a nonzero exit when any fire.
//
// It deliberately has no libclang dependency: every rule is a structural
// property of the tree (which files name which tokens, how many slots an
// aggregate initializer carries, which versions a doc table pins), so a
// purpose-built lexer is both sufficient and fast enough to run on every
// ctest invocation. Whole-program semantic checks stay with the industry
// layer (`uhd_tidy`, GCC -fanalyzer) wired up next to this tool in CI.
//
// Rules (see rules.cpp for the fine print):
//   isa-hermeticity    — intrinsics headers / __AVX*/__SSE* guards /
//                        _mm* calls only in the designated backend TUs
//   kernel-table-parity— every kernel_table member is defined and slotted
//                        in every registered backend TU
//   dispatch-only      — nothing outside the registry TUs names the
//                        backend detail namespace or repins the backend
//   bench-schema-sync  — bench/*.cpp schema_version emissions match the
//                        table documented in bench/README.md
//   header-hygiene     — public headers carry include guards and directly
//                        include what they use (std symbol map)
//   test-only-header   — every public header is included by a file outside
//                        tests/ other than its own TU, unless a header
//                        marker (`uhd-lint: test-reference <reason>` in the
//                        comment block before its include guard) marks it;
//                        a marked header that is included there is a stale
//                        marker. perfbench/ is not scanned, so a header only
//                        it included would be flagged (none is today)
//   unreached-function — given the reach listings (nm -l of libuhd.a built
//                        with -fkeep-inline-functions, and nm of every
//                        product binary), every external libuhd.a function
//                        and every inline function located in a public
//                        header is linked into some product unless a
//                        `uhd-lint: test-reference <reason>` comment above
//                        its definition, or a header marker on its header
//                        or its TU's public header, marks it. Implicitly
//                        defined or defaulted constructors and destructors
//                        and always_inline definitions are skipped. A
//                        marked function that a product links is a stale
//                        marker, and so is a function marker in a
//                        src/**/*.cpp file or a public header above no
//                        judged function. Three limits: a template no
//                        library TU instantiates, a defaulted function
//                        (operator== = default) and a header no library TU
//                        includes emit no symbol into the listing, so they
//                        are out of its sight
#ifndef UHD_LINT_LINT_HPP
#define UHD_LINT_LINT_HPP

#include <cstddef>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace uhd_lint {

/// One rule violation, anchored to a file and (1-based) line. line == 0
/// anchors a whole-file or whole-project finding (e.g. a missing file).
struct finding {
    std::string rule;
    std::string file;  ///< path relative to the scanned root, '/'-separated
    std::size_t line = 0;
    std::string message;
};

/// One source file in the scanned tree: the raw bytes plus a "code" view
/// of identical length where comments, string literals, and character
/// literals are blanked to spaces (newlines preserved), so token scans
/// cannot be fooled by prose or emitted JSON text.
struct source_file {
    std::string rel_path;  ///< '/'-separated path relative to the root
    std::string raw;
    std::string code;

    /// 1-based line number of byte `offset` into raw/code.
    [[nodiscard]] std::size_t line_of(std::size_t offset) const noexcept;
};

/// Blank comments and string/character literals (handles //, /*...*/,
/// "...", '...', and R"delim(...)delim") to spaces, preserving length and
/// newlines so offsets and line numbers stay valid.
[[nodiscard]] std::string strip_comments_and_strings(std::string_view raw);

/// True when code[pos..] starts with `token` bounded by non-identifier
/// characters on both sides.
[[nodiscard]] bool token_at(std::string_view code, std::size_t pos,
                            std::string_view token) noexcept;

/// Offset of the first identifier-boundary occurrence of `token` at or
/// after `from`; npos when absent.
[[nodiscard]] std::size_t find_token(std::string_view code, std::string_view token,
                                     std::size_t from = 0) noexcept;

/// The scanned tree: every source file under the root's src/, tests/,
/// bench/, examples/, and tools/ directories (extensions .hpp, .h, .cpp,
/// .inc), plus bench/README.md. Directories named lint_fixtures, build*,
/// or starting with '.' are skipped so fixture trees and build output
/// never leak into a real-tree scan.
struct project {
    std::filesystem::path root;
    std::vector<source_file> files;

    /// The reach listings unreached-function reads, empty (and the rule
    /// silent) unless load_symbol_listings() filled them: the output of
    /// `nm -C -l --defined-only` on libuhd.a (built with
    /// -fkeep-inline-functions, so header inline functions are listed), and
    /// of `nm -C --defined-only` on every product binary.
    std::string library_symbols;
    std::string product_symbols;

    /// File by exact relative path; nullptr when absent.
    [[nodiscard]] const source_file* find(std::string_view rel_path) const noexcept;
};

/// Load a project tree from disk. Throws std::runtime_error when root is
/// not a directory.
[[nodiscard]] project load_project(const std::filesystem::path& root);

/// Read the two reach listings into `p`. Throws std::runtime_error when
/// either file cannot be read or is empty.
void load_symbol_listings(project& p, const std::filesystem::path& library,
                          const std::filesystem::path& products);

/// One registered rule.
struct rule {
    std::string_view id;
    std::string_view summary;
    void (*run)(const project&, std::vector<finding>&);
};

/// Every rule this analyzer knows, in the order they run.
[[nodiscard]] std::span<const rule> all_rules() noexcept;

/// Run the named rules (all of them when `only` is empty) over a loaded
/// project. Unknown names throw std::runtime_error.
[[nodiscard]] std::vector<finding> run_rules(const project& p,
                                             std::span<const std::string> only = {});

} // namespace uhd_lint

#endif // UHD_LINT_LINT_HPP

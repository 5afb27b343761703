// Fixture suite for the uhd_lint project-invariant analyzer.
//
// Each fixture tree under tests/lint_fixtures/ is a miniature project:
// `clean` passes every rule; the violation trees each seed the violations
// one rule class must catch (among them a dropped kernel-table backend
// slot, a kernel slot only a test calls, and an immintrin.h include in a
// portable header). The assertions pin rule id, file, and line, so a
// rule that silently stops firing — or fires on the wrong thing — fails
// here even while the real tree stays green. The real-tree zero-finding
// gate is the separate `uhd_lint_tree` CTest entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "uhd_lint/lint.hpp"

#ifndef UHD_LINT_FIXTURES_DIR
#error "UHD_LINT_FIXTURES_DIR must point at tests/lint_fixtures"
#endif

namespace {

using uhd_lint::finding;

std::vector<finding> lint_tree(const std::string& tree) {
    const uhd_lint::project p =
        uhd_lint::load_project(std::string(UHD_LINT_FIXTURES_DIR) + "/" + tree);
    EXPECT_FALSE(p.files.empty()) << "fixture tree " << tree << " loaded no files";
    return uhd_lint::run_rules(p);
}

bool has(const std::vector<finding>& findings, const std::string& rule,
         const std::string& file, std::size_t line) {
    return std::any_of(findings.begin(), findings.end(), [&](const finding& f) {
        return f.rule == rule && f.file == file && f.line == line;
    });
}

std::size_t count_rule_at(const std::vector<finding>& findings, const std::string& rule,
                          const std::string& file, std::size_t line) {
    return static_cast<std::size_t>(
        std::count_if(findings.begin(), findings.end(), [&](const finding& f) {
            return f.rule == rule && f.file == file && f.line == line;
        }));
}

std::string dump(const std::vector<finding>& findings) {
    std::string out;
    for (const finding& f : findings) {
        out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
               f.message + "\n";
    }
    return out.empty() ? "(no findings)" : out;
}

/// All findings must belong to one rule class — a violation tree must not
/// trip unrelated rules.
bool only_rule(const std::vector<finding>& findings, const std::string& rule) {
    return std::all_of(findings.begin(), findings.end(),
                       [&](const finding& f) { return f.rule == rule; });
}

TEST(UhdLint, CleanTreePasses) {
    const std::vector<finding> findings = lint_tree("clean");
    EXPECT_TRUE(findings.empty()) << dump(findings);
}

TEST(UhdLint, RuleRegistryListsAllFiveClasses) {
    std::vector<std::string> ids;
    for (const uhd_lint::rule& r : uhd_lint::all_rules()) {
        ids.emplace_back(r.id);
    }
    const std::vector<std::string> expected = {
        "isa-hermeticity", "kernel-table-parity", "dispatch-only",
        "bench-schema-sync", "header-hygiene"};
    EXPECT_EQ(ids, expected);
}

TEST(UhdLint, IsaHermeticityFiresOnIntrinsicsInPortableCode) {
    const std::vector<finding> findings = lint_tree("hermetic");
    // The acceptance-criteria seed: immintrin.h included by a portable
    // public header.
    EXPECT_TRUE(has(findings, "isa-hermeticity",
                    "src/core/include/uhd/core/thing.hpp", 8))
        << dump(findings);
    // __AVX2__ guard and _mm256 intrinsic in a portable TU.
    EXPECT_TRUE(has(findings, "isa-hermeticity", "src/core/thing.cpp", 13))
        << dump(findings);
    EXPECT_TRUE(has(findings, "isa-hermeticity", "src/core/thing.cpp", 14))
        << dump(findings);
    // The prose comment and string literal mentioning __AVX2__ must NOT
    // fire: exactly the three seeded violations, nothing else.
    EXPECT_EQ(findings.size(), 3u) << dump(findings);
    EXPECT_TRUE(only_rule(findings, "isa-hermeticity")) << dump(findings);
}

TEST(UhdLint, KernelTableParityFiresOnDroppedSlotAndMissingTu) {
    const std::vector<finding> findings = lint_tree("parity_drop");
    // The acceptance-criteria seed: the swar backend dropped the `beta`
    // and `geq_rematerialize_accumulate` slots — the arity mismatch and
    // both missing members must fire (the latter proves the parity rule
    // covers the rematerializing kernel slot).
    EXPECT_TRUE(has(findings, "kernel-table-parity",
                    "src/common/kernels_swar.cpp", 14))
        << dump(findings);
    EXPECT_TRUE(has(findings, "kernel-table-parity",
                    "src/common/kernels_swar.cpp", 1))
        << dump(findings);
    EXPECT_EQ(count_rule_at(findings, "kernel-table-parity",
                            "src/common/kernels_swar.cpp", 1),
              2u)
        << dump(findings);
    // A registered backend whose TU does not exist.
    EXPECT_TRUE(has(findings, "kernel-table-parity", "src/common/kernels.cpp", 19))
        << dump(findings);
    EXPECT_EQ(findings.size(), 4u) << dump(findings);
    EXPECT_TRUE(only_rule(findings, "kernel-table-parity")) << dump(findings);
}

TEST(UhdLint, KernelTableParityFiresOnSlotWithoutLibraryCaller) {
    const std::vector<finding> findings = lint_tree("slot_no_caller");
    // `beta` is wired in every backend but named only by a test: the
    // finding anchors at its kernel_table member. `alpha`, which the
    // library calls, must not fire.
    EXPECT_TRUE(has(findings, "kernel-table-parity",
                    "src/common/include/uhd/common/kernels.hpp", 15))
        << dump(findings);
    EXPECT_EQ(findings.size(), 1u) << dump(findings);
    EXPECT_TRUE(only_rule(findings, "kernel-table-parity")) << dump(findings);
}

TEST(UhdLint, DispatchOnlyFiresOnDetailNamespaceAndForceBackend) {
    const std::vector<finding> findings = lint_tree("direct_call");
    // force_backend named outside test/bench (line 7 is its first
    // occurrence in the violating TU).
    EXPECT_TRUE(has(findings, "dispatch-only", "src/core/thing.cpp", 7))
        << dump(findings);
    // kernels::detail and the swar_table accessor on the call line.
    EXPECT_TRUE(has(findings, "dispatch-only", "src/core/thing.cpp", 14))
        << dump(findings);
    EXPECT_EQ(findings.size(), 3u) << dump(findings);
    EXPECT_TRUE(only_rule(findings, "dispatch-only")) << dump(findings);
}

TEST(UhdLint, BenchSchemaSyncFiresOnDriftAndOrphanDoc) {
    const std::vector<finding> findings = lint_tree("schema_drift");
    // Emitted version 2 vs documented 1, anchored at the emission line.
    EXPECT_TRUE(has(findings, "bench-schema-sync", "bench/bench_foo.cpp", 10))
        << dump(findings);
    // Documented bench `bar` that nothing emits, anchored at the marker.
    EXPECT_TRUE(has(findings, "bench-schema-sync", "bench/README.md", 6))
        << dump(findings);
    EXPECT_EQ(findings.size(), 2u) << dump(findings);
    EXPECT_TRUE(only_rule(findings, "bench-schema-sync")) << dump(findings);
}

TEST(UhdLint, HeaderHygieneFiresOnMissingGuardAndMissingIncludes) {
    const std::vector<finding> findings = lint_tree("hygiene");
    const std::string header = "src/core/include/uhd/core/thing.hpp";
    EXPECT_TRUE(has(findings, "header-hygiene", header, 4)) << dump(findings);
    EXPECT_TRUE(has(findings, "header-hygiene", header, 9)) << dump(findings);
    EXPECT_TRUE(has(findings, "header-hygiene", header, 10)) << dump(findings);
    EXPECT_EQ(findings.size(), 3u) << dump(findings);
    EXPECT_TRUE(only_rule(findings, "header-hygiene")) << dump(findings);
}

TEST(UhdLint, RuleFilterRunsOnlySelectedRules) {
    const uhd_lint::project p =
        uhd_lint::load_project(std::string(UHD_LINT_FIXTURES_DIR) + "/hermetic");
    const std::vector<std::string> only = {"bench-schema-sync"};
    EXPECT_TRUE(uhd_lint::run_rules(p, only).empty());
    const std::vector<std::string> unknown = {"no-such-rule"};
    EXPECT_THROW((void)uhd_lint::run_rules(p, unknown), std::runtime_error);
}

TEST(UhdLint, StripperBlanksCommentsStringsAndRawStrings) {
    const std::string raw =
        "int a; // __AVX2__ comment\n"
        "const char* s = \"_mm256_add\"; /* __SSE2__ */\n"
        "const char* r = R\"(__AVX512F__)\";\n"
        "int b = 1'000'000;\n";
    const std::string code = uhd_lint::strip_comments_and_strings(raw);
    EXPECT_EQ(code.size(), raw.size());
    EXPECT_EQ(std::count(code.begin(), code.end(), '\n'),
              std::count(raw.begin(), raw.end(), '\n'));
    EXPECT_EQ(code.find("__AVX2__"), std::string::npos);
    EXPECT_EQ(code.find("_mm256_add"), std::string::npos);
    EXPECT_EQ(code.find("__SSE2__"), std::string::npos);
    EXPECT_EQ(code.find("__AVX512F__"), std::string::npos);
    EXPECT_NE(code.find("int a;"), std::string::npos);
    EXPECT_NE(uhd_lint::find_token(code, "b"), std::string::npos);
    // Digit separators must not open a character literal.
    EXPECT_NE(code.find("1'000'000"), std::string::npos);
}

TEST(UhdLint, TokenSearchRespectsIdentifierBoundaries) {
    const std::string code = "sign_binarize_reference sign_binarize";
    EXPECT_EQ(uhd_lint::find_token(code, "sign_binarize"), 24u);
    EXPECT_NE(uhd_lint::find_token(code, "sign_binarize_reference"),
              std::string::npos);
}

} // namespace

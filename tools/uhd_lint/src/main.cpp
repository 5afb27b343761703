// uhd_lint CLI.
//
//   uhd_lint [--root <dir>] [--rule <id>]... [--list-rules] [--quiet]
//            [--library-symbols <nm listing> --product-symbols <nm listing>]
//
// Scans the tree rooted at --root (default: the current directory) and
// prints findings as `file:line: [rule] message`. Exit codes: 0 clean,
// 1 findings, 2 usage or I/O error — so both CTest and CI can gate on it.
// The two listings turn on unreached-function; see lint.hpp.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "uhd_lint/lint.hpp"

namespace {

void usage(std::FILE* to) {
    std::fprintf(to,
                 "usage: uhd_lint [--root <dir>] [--rule <id>]... "
                 "[--list-rules] [--quiet]\n"
                 "                [--library-symbols <file> "
                 "--product-symbols <file>]\n"
                 "Project-invariant static analyzer for the uhd tree.\n"
                 "Exit: 0 clean, 1 findings, 2 usage/I-O error.\n");
}

} // namespace

int main(int argc, char** argv) {
    std::string root = ".";
    std::vector<std::string> rules;
    std::string library_symbols;
    std::string product_symbols;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--rule" && i + 1 < argc) {
            rules.emplace_back(argv[++i]);
        } else if (arg == "--library-symbols" && i + 1 < argc) {
            library_symbols = argv[++i];
        } else if (arg == "--product-symbols" && i + 1 < argc) {
            product_symbols = argv[++i];
        } else if (arg == "--list-rules") {
            for (const uhd_lint::rule& r : uhd_lint::all_rules()) {
                std::printf("%-20s %s\n", std::string(r.id).c_str(),
                            std::string(r.summary).c_str());
            }
            return 0;
        } else if (arg == "--quiet" || arg == "-q") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "uhd_lint: unknown argument '%s'\n", arg.c_str());
            usage(stderr);
            return 2;
        }
    }

    if (library_symbols.empty() != product_symbols.empty()) {
        std::fprintf(stderr, "uhd_lint: --library-symbols and --product-symbols "
                             "go together\n");
        usage(stderr);
        return 2;
    }

    try {
        uhd_lint::project tree = uhd_lint::load_project(root);
        if (!library_symbols.empty()) {
            uhd_lint::load_symbol_listings(tree, library_symbols, product_symbols);
        }
        const std::vector<uhd_lint::finding> findings =
            uhd_lint::run_rules(tree, rules);
        for (const uhd_lint::finding& f : findings) {
            std::printf("%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                        f.rule.c_str(), f.message.c_str());
        }
        if (!quiet) {
            std::printf("uhd_lint: scanned %zu files under %s: %zu finding%s\n",
                        tree.files.size(), tree.root.string().c_str(),
                        findings.size(), findings.size() == 1 ? "" : "s");
        }
        return findings.empty() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "uhd_lint: %s\n", e.what());
        return 2;
    }
}

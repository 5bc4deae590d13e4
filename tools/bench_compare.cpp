// bench_compare — perf-regression gate over EBV_BENCH_JSON artifacts.
//
//   bench_compare [options] <baseline.json> <current.json>
//
//   --tolerance=<frac>     allowed relative move in the bad direction
//                          before a gated metric fails (default 0.10)
//   --gate-only=<substr>   gate only metric names containing <substr>
//                          (everything is still reported); CI uses this to
//                          gate machine-stable ratio metrics like speedup
//   --strict-provenance    provenance mismatch is an error, not a warning
//
// Exit status: 0 = pass, 1 = regression or fatal mismatch (aborted run,
// different bench, strict-provenance failure, no metric gated), 2 = usage /
// unreadable input.
// All decision logic lives in bench::compare (src/bench/compare.hpp) so it
// is unit-tested; this file is argument parsing and exit codes only.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/compare.hpp"

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--tolerance=<frac>] [--gate-only=<substr>] "
                 "[--strict-provenance] <baseline.json> <current.json>\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    ebv::bench::CompareOptions options;
    std::string baseline;
    std::string current;

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strncmp(arg, "--tolerance=", 12) == 0) {
            char* end = nullptr;
            options.tolerance = std::strtod(arg + 12, &end);
            if (end == nullptr || *end != '\0' || options.tolerance < 0)
                return usage(argv[0]);
        } else if (std::strncmp(arg, "--gate-only=", 12) == 0) {
            options.gate_only = arg + 12;
        } else if (std::strcmp(arg, "--strict-provenance") == 0) {
            options.strict_provenance = true;
        } else if (arg[0] == '-') {
            return usage(argv[0]);
        } else if (baseline.empty()) {
            baseline = arg;
        } else if (current.empty()) {
            current = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (baseline.empty() || current.empty()) return usage(argv[0]);

    const ebv::bench::CompareResult result =
        ebv::bench::compare_files(baseline, current, options);
    std::fputs(ebv::bench::format_report(result).c_str(), stdout);

    // Unreadable input is a usage-class failure, distinct from a regression.
    for (const std::string& e : result.errors) {
        if (e.rfind("cannot read/parse", 0) == 0) return 2;
    }
    return result.ok ? 0 : 1;
}

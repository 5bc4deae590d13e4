// ebv_perf: the benchmark program behind perfbench/run.py.
//
//   ebv_perf --workload <ibd|tip|mempool> --seed <n> --seconds <s>
//            --trace <0|1> [--trace-out <path>] [--threads <n>] [--tiny]
//   ebv_perf --list-workloads
//   ebv_perf --selftest-mutants [--seed <n>]
//
// Prints one JSON object on the last line of stdout: the metrics, the
// attempted and failed operation counts, the failed checks, notes, and the
// resolved configuration. Exit code 2 means the run was refused (bad
// arguments, an EBV_* knob set in the environment, a pool wider than the
// CPUs this process may use); 1 means it could not complete.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/sig_cache.hpp"
#include "core/tx_pool.hpp"
#include "crypto/sha256.hpp"
#include "ibd/options.hpp"
#include "obs/trace.hpp"
#include "inputs.hpp"
#include "util/affinity.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

#ifndef EBV_PERF_BUILD_TYPE
#define EBV_PERF_BUILD_TYPE "unknown"
#endif

extern char** environ;

using namespace ebv;
using namespace ebv::perf;

namespace {

/// Environment knobs that change the measured program. The benchmark
/// measures the defaults, so any of these being set refuses the run.
bool changes_program(const std::string& name) {
    static const char* const kKnobs[] = {
        "EBV_BATCH_VERIFY",   "EBV_SCHEDULER",     "EBV_SIGHASH_TEMPLATE",
        "EBV_SHA256_IMPL",    "EBV_SIGCACHE_BYTES", "EBV_MEMPOOL_BYTES",
        "EBV_PROOF_CACHE_BYTES", "EBV_AFFINITY",
    };
    if (name.rfind("EBV_PIPELINE", 0) == 0) return true;
    for (const char* knob : kKnobs)
        if (name == knob) return true;
    return false;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string provenance(const util::ThreadPool& pool) {
    const core::EbvValidatorOptions validator;
    std::string p = "{";
    p += "\"build_type\":" + json_string(EBV_PERF_BUILD_TYPE);
    p += ",\"sha256_impl\":" + json_string(crypto::sha256_impl());
    p += ",\"sha256_batch_impl\":" + json_string(crypto::sha256_batch_impl());
    p += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
    p += ",\"cpus_visible\":" + std::to_string(util::affinity_cpu_count());
    p += ",\"pool_threads\":" + std::to_string(pool.thread_count());
    p += ",\"scheduler\":" + json_string(util::to_string(pool.scheduler()));
    p += ",\"affinity\":" + std::string(util::default_affinity() ? "true" : "false");
    p += ",\"batch_verify\":" +
         std::string(core::batch_verify_enabled(validator) ? "true" : "false");
    p += ",\"sighash_template\":" +
         std::string(core::sighash_template_enabled(validator) ? "true" : "false");
    p += ",\"pipeline_window\":" +
         std::to_string(ibd::PipelineOptions::from_env(ibd::PipelineOptions{}).window);
    p += ",\"sigcache_max_bytes\":" + std::to_string(core::SigCache().max_bytes());
    p += ",\"mempool_max_bytes\":" + std::to_string(core::TxPoolOptions::from_env().max_bytes);
    return p + "}";
}

void print_result(const Args& args, const Outcome& out, const util::ThreadPool& pool) {
    std::string j = "{\"workload\":" + json_string(args.workload);
    j += ",\"seed\":" + std::to_string(args.seed);
    j += ",\"trace\":" + std::string(args.trace ? "1" : "0");
    j += ",\"attempted\":" + std::to_string(out.attempted);
    j += ",\"failed\":" + std::to_string(out.failed);
    j += ",\"metrics\":{";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric& m = out.metrics[i];
        j += (i ? "," : "") + json_string(m.name) + ":{\"value\":" + json_number(m.value) +
             ",\"unit\":" + json_string(m.unit) + "}";
    }
    j += "},\"failures\":[";
    for (std::size_t i = 0; i < out.failures.size(); ++i)
        j += (i ? "," : "") + json_string(out.failures[i]);
    j += "],\"notes\":[";
    for (std::size_t i = 0; i < out.notes.size(); ++i)
        j += (i ? "," : "") + json_string(out.notes[i]);
    j += "],\"provenance\":" + provenance(pool) + "}";
    std::printf("%s\n", j.c_str());
}

/// The mutated-block check must count an accepted block as a failure and
/// roll the node back; the real mutants must both be rejected as expected.
int selftest_mutants(std::uint64_t seed, util::ThreadPool& pool) {
    const Chain chain = era_chain(seed, 40, 0.05);
    core::SigCache cache;
    core::EbvNodeOptions options;
    options.params = chain.params;
    options.validator.script_pool = &pool;
    options.validator.sigcache = &cache;
    core::EbvNode node(options);
    const std::size_t last = chain.blocks.size() - 1;
    for (std::size_t b = 0; b < last; ++b)
        if (!node.submit_block(chain.blocks[b])) {
            std::fprintf(stderr, "selftest: chain rejected at block %zu\n", b);
            return 1;
        }
    const core::EbvBlock& next = chain.blocks[last];

    Outcome unmutated;
    expect_rejection(node, next,
                     core::EbvValidationFailure{core::EbvError::kScriptFailure, 1, 0,
                                                script::ScriptError::kEvalFalse},
                     "unmutated copy", unmutated);
    const bool counted = unmutated.attempted == 1 && unmutated.failed == 1 &&
                         node.next_height() == last;

    Outcome mutants;
    check_mutants(node, next, seed, mutants);
    const bool rejected = mutants.attempted == 2 && mutants.failed == 0 &&
                          node.next_height() == last;
    std::printf("{\"accepted_copy_counted_as_failure\":%s,\"mutants_rejected\":%s}\n",
                counted ? "true" : "false", rejected ? "true" : "false");
    for (const std::string& f : mutants.failures) std::fprintf(stderr, "%s\n", f.c_str());
    return counted && rejected ? 0 : 1;
}

/// Spans a traced run can hold: more than the longest traced run records.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 19;

bool write_trace(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string jsonl = obs::Tracer::global().to_jsonl();
    const bool written = std::fwrite(jsonl.data(), 1, jsonl.size(), f) == jsonl.size();
    return std::fclose(f) == 0 && written;
}

int usage(const char* why) {
    std::fprintf(stderr, "ebv_perf: %s\n", why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    args.threads = util::affinity_cpu_count();
    std::string trace_out;
    bool selftest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--list-workloads") {
            for (const std::string& name : workload_names()) std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--tiny") {
            args.tiny = true;
        } else if (arg == "--selftest-mutants") {
            selftest = true;
        } else if (value == nullptr) {
            return usage(("missing value for " + arg).c_str());
        } else if (arg == "--workload") {
            args.workload = argv[++i];
        } else if (arg == "--seed") {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            args.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace") {
            args.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--trace-out") {
            trace_out = argv[++i];
        } else if (arg == "--threads") {
            args.threads = std::strtoull(argv[++i], nullptr, 10);
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }

    for (char** env = environ; *env != nullptr; ++env) {
        const std::string entry = *env;
        const std::string name = entry.substr(0, entry.find('='));
        if (changes_program(name))
            return usage((name + " is set; the benchmark measures the program's defaults").c_str());
    }
    if (args.threads == 0 || args.threads > util::affinity_cpu_count())
        return usage("the pool must have between 1 thread and the CPUs this process may use");

    util::ThreadPool pool(args.threads);
    try {
        if (selftest) return selftest_mutants(args.seed, pool);
        bool known = false;
        for (const std::string& name : workload_names()) known = known || name == args.workload;
        if (!known) return usage(("unknown workload '" + args.workload + "'").c_str());
        if (!(args.seconds > 0)) return usage("--seconds must be positive");

        // The traced run keeps every span of the run in the program's
        // tracer; the untraced run leaves the tracer at its defaults.
        if (args.trace) obs::Tracer::global().set_capacity(kTraceCapacity);
        Outcome out = run_workload(args, pool);
        if (args.trace) {
            const obs::Tracer& tracer = obs::Tracer::global();
            out.note("spans: " + std::to_string(tracer.recorded()) + " recorded, " +
                     std::to_string(tracer.dropped()) + " dropped");
        }
        if (args.trace && !trace_out.empty() && !write_trace(trace_out))
            std::fprintf(stderr, "ebv_perf: cannot write spans to %s\n", trace_out.c_str());
        print_result(args, out, pool);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ebv_perf: %s\n", e.what());
        return 1;
    }
}

// The benchmark workloads. Each builds its inputs from the seed
// (several times, for the set-up time), runs its timed loop against the
// program's public API, checks the program's outputs, and reports the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "util/thread_pool.hpp"

namespace ebv::perf {

/// Workload names in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Run one workload. A traced run records its spans with obs::Tracer.
Outcome run_workload(const Args& args, util::ThreadPool& pool);

}  // namespace ebv::perf

// Shared pieces of the EBV benchmark program (ebv_perf): the run's arguments, the
// outcome a workload reports, benchmark-side spans, order statistics, and
// registry deltas. Everything here lives on the benchmark's side of the
// program's public API.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace ebv::perf {

/// The tracer's clock, so that intervals timed here can be recorded as
/// spans unchanged.
inline std::int64_t now_ns() { return obs::Tracer::now_ns(); }

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Self-test scale: every workload shrinks to a few blocks/rounds so a
    /// full pass finishes in seconds.
    bool tiny = false;
    std::size_t threads = 1;  ///< pool width; defaults to the CPUs visible
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// What one workload run reports. Every check the benchmark makes on the
/// program's output is one attempted operation; a check that does not hold
/// is one failed operation.
struct Outcome {
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  ///< first few failed checks, described
    std::vector<std::string> notes;     ///< human-readable context lines

    void check(bool ok, const std::string& what) {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failures.size() < 16) failures.push_back(what);
        }
    }
    void add(std::string name, double value, std::string unit) {
        metrics.push_back(Metric{std::move(name), value, std::move(unit)});
    }
    void note(std::string line) { notes.push_back(std::move(line)); }
};

/// A benchmark-side span around one top-level call, recorded by the
/// program's own tracer so that the program's block and stage spans nest
/// under it. Inert unless `on` (the traced run) and the tracer is enabled.
class CallSpan {
public:
    CallSpan(bool on, const char* name) {
        if (on) span_.emplace(name, "perfbench");
    }

private:
    std::optional<obs::ScopedSpan> span_;
};

/// Record an interval the caller timed itself with obs::Tracer::now_ns()
/// (the layer replay keeps the tracer's bookkeeping outside the interval),
/// parented under the calling thread's current span.
void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns);

/// Durations (ns) of every recorded span called `name`, in recording order.
std::vector<double> span_durations_ns(const std::vector<obs::Span>& spans,
                                      const std::string& name);

/// Quantile with linear interpolation between order statistics (the
/// "inclusive" definition); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Peak resident set size of this process so far, in MiB (VmHWM).
double peak_rss_mb();

/// Snapshot of the registry instruments the benchmark reads as deltas.
class RegistrySnapshot {
public:
    RegistrySnapshot();
    [[nodiscard]] std::uint64_t counter(const std::string& name) const;
    [[nodiscard]] std::uint64_t hist_sum(const std::string& name) const;
    [[nodiscard]] std::uint64_t hist_count(const std::string& name) const;

private:
    std::map<std::string, std::uint64_t> values_;
};

/// after - before for one instrument.
std::uint64_t counter_delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
                            const std::string& name);
std::uint64_t hist_sum_delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
                             const std::string& name);
std::uint64_t hist_count_delta(const RegistrySnapshot& before,
                               const RegistrySnapshot& after, const std::string& name);

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace ebv::perf

#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <cstring>

#include "obs/metrics.hpp"

namespace ebv::perf {

void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
    const obs::TraceContext ctx = obs::current_context();
    obs::Span span;
    span.name = name;
    span.category = "perfbench";
    span.trace_id = ctx.trace_id;
    span.span_id = obs::next_span_id();
    span.parent_id = ctx.span_id;
    span.start_ns = start_ns;
    span.wall_ns = end_ns - start_ns;
    obs::Tracer::global().record(std::move(span));
}

std::vector<double> span_durations_ns(const std::vector<obs::Span>& spans,
                                      const std::string& name) {
    std::vector<double> out;
    for (const obs::Span& s : spans)
        if (s.kind == obs::SpanKind::kSpan && s.name == name)
            out.push_back(static_cast<double>(s.wall_ns));
    return out;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0;
    char line[256];
    double kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kb / 1024.0;
}

namespace {

// The registry instruments the benchmark reads. Each is requested with the
// kind (and, for histograms with custom buckets, the bounds) its owner
// registers it with, so asking for it first creates nothing different.
const char* const kCounters[] = {
    "ebv.sigcache.hits",
    "ebv.sigcache.misses",
};
const char* const kTimeHistograms[] = {
    "ebv.ibd.stall_ns",
    "ebv.ibd.commit_ns",
};

obs::Histogram& window_occupancy() {
    return obs::Registry::global().histogram("ebv.ibd.window_occupancy",
                                             obs::Histogram::exponential_bounds(1, 2.0, 10));
}

}  // namespace

RegistrySnapshot::RegistrySnapshot() {
    obs::Registry& r = obs::Registry::global();
    for (const char* name : kCounters) values_[name] = r.counter(name).value();
    for (const char* name : kTimeHistograms) {
        const obs::Histogram& h = r.histogram(name);
        values_[std::string(name) + "#sum"] = h.sum();
        values_[std::string(name) + "#count"] = h.count();
    }
    const obs::Histogram& occ = window_occupancy();
    values_["ebv.ibd.window_occupancy#sum"] = occ.sum();
    values_["ebv.ibd.window_occupancy#count"] = occ.count();
}

std::uint64_t RegistrySnapshot::counter(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
}
std::uint64_t RegistrySnapshot::hist_sum(const std::string& name) const {
    return counter(name + "#sum");
}
std::uint64_t RegistrySnapshot::hist_count(const std::string& name) const {
    return counter(name + "#count");
}

std::uint64_t counter_delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
                            const std::string& name) {
    return after.counter(name) - before.counter(name);
}
std::uint64_t hist_sum_delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
                             const std::string& name) {
    return after.hist_sum(name) - before.hist_sum(name);
}
std::uint64_t hist_count_delta(const RegistrySnapshot& before,
                               const RegistrySnapshot& after, const std::string& name) {
    return after.hist_count(name) - before.hist_count(name);
}

}  // namespace ebv::perf

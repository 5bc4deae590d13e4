#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "core/node.hpp"
#include "core/sig_cache.hpp"
#include "core/tx_pool.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ebv::perf {

namespace {

/// Set-up is repeated at least kSetupRepeats times, and for at least
/// kSetupSeconds in all, and reported as the median, so that work moved
/// into set-up shows against a steady figure. The time floor gives a short
/// set-up as many repeats as it takes to span the host's slow and fast
/// phases, which last a few seconds each.
constexpr int kSetupRepeats = 3;
constexpr double kSetupSeconds = 5.0;

double seconds_since(std::int64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Run `make` repeatedly as above (kSetupRepeats times only, when `tiny`),
/// timing each, and keep the last result.
template <typename Make>
auto repeated_setup(Make make, std::vector<double>& times, bool tiny) {
    std::optional<decltype(make())> kept;
    const std::int64_t first = now_ns();
    for (int i = 0; i < kSetupRepeats || (!tiny && seconds_since(first) < kSetupSeconds);
         ++i) {
        kept.reset();
        const std::int64_t start = now_ns();
        kept.emplace(make());
        times.push_back(seconds_since(start));
    }
    return std::move(*kept);
}

/// The end-to-end metrics every workload prints, each with the meaning its
/// workload gives it (see perfbench/README.md). The loop figures come in
/// already reduced, as medians over passes where the workload has them.
/// The tail is printed but not a metric of the timed run: on a shared
/// host it reads the hypervisor's steal time (README, "End-to-end
/// metrics"); the traced run reports it as the per-layer latency_p95_ms.
void add_end_to_end(Outcome& out, const std::vector<double>& setup_times, double throughput,
                    double p50_ms, double p95_ms) {
    out.add("setup_s", median(setup_times), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("throughput_per_s", throughput, "1/s");
    out.add("latency_p50_ms", p50_ms, "ms");
    char line[64];
    std::snprintf(line, sizeof line, "latency p95 (not gated) = %.6g ms", p95_ms);
    out.note(line);
    std::string setups = "set-up runs (s):";
    for (const double t : setup_times) {
        std::snprintf(line, sizeof line, " %.3f", t);
        setups += line;
    }
    out.note(setups);
}

/// Loop figures of a workload that repeats its inputs in passes, one value
/// per pass. The end-to-end figures are their medians, so a pass that the
/// host slowed (another guest taking the shared cores for a while) moves
/// them little.
struct PassFigures {
    std::vector<double> throughput, p50_ms, p95_ms;

    void add(double items, double busy_ns, const std::vector<double>& latencies_ms) {
        throughput.push_back(items / (busy_ns / 1e9));
        p50_ms.push_back(median(latencies_ms));
        p95_ms.push_back(quantile(latencies_ms, 0.95));
    }
    [[nodiscard]] double p95() const { return median(p95_ms); }
    void report(Outcome& out, const std::vector<double>& setup_times, const char* op,
                std::size_t per_pass) const {
        add_end_to_end(out, setup_times, median(throughput), median(p50_ms), p95());
        char line[160];
        std::snprintf(line, sizeof line,
                      "latency: median over %zu passes of each pass's p50 and p95 over %zu %s",
                      p50_ms.size(), per_pass, op);
        out.note(line);
    }
};

/// Pool counters over a timed loop (ThreadPool::stats() deltas; the
/// registry exports these only from some of the paths that use the pool).
struct PoolDelta {
    util::PoolStats before;
    explicit PoolDelta(const util::ThreadPool& pool) : before(pool.stats()) {}

    void report(const util::ThreadPool& pool, double inputs, Outcome& out) const {
        const util::PoolStats after = pool.stats();
        const double kinputs = inputs / 1e3;
        out.add("util.pool.barrier_wait_ms",
                ratio(static_cast<double>(after.barrier_wait_ns - before.barrier_wait_ns) / 1e6,
                      kinputs),
                "ms/kinput");
        out.add("util.pool.wakeup_us",
                ratio(static_cast<double>(after.wakeup_ns - before.wakeup_ns) / 1e3,
                      static_cast<double>(after.wakeups - before.wakeups)),
                "us");
        out.add("util.pool.steal_attempts",
                ratio(static_cast<double>(after.steal_attempts - before.steal_attempts), kinputs),
                "1/kinput");
        out.add("util.pool.steals",
                ratio(static_cast<double>(after.steals - before.steals), kinputs), "1/kinput");
    }
};

/// Efficiency and residual of the pool against the 1-thread pass, plus
/// the budget gap: both need the budget pass, which only the chain
/// workloads make.
void add_budget_metrics(const Budget& budget, std::size_t threads, Outcome& out) {
    const double t = static_cast<double>(threads);
    out.add("util.pool.efficiency", ratio(budget.one_thread_ns, t * budget.parallel_ns),
            "ratio");
    out.add("util.pool.residual_ms",
            ratio((t * budget.parallel_ns - budget.one_thread_ns) / 1e6,
                  static_cast<double>(budget.blocks)),
            "ms/block");
    out.add("budget_gap_pct", std::abs(budget.gap_pct()), "%");
    char line[200];
    std::snprintf(line, sizeof line,
                  "budget over %zu blocks / %zu inputs: layers %.1f ms vs 1-thread "
                  "submit_block %.1f ms (gap %+.2f%%); %zu-thread wall %.1f ms",
                  budget.blocks, budget.inputs, budget.layers.budget_ns() / 1e6,
                  budget.one_thread_ns / 1e6, budget.gap_pct(), threads,
                  budget.parallel_ns / 1e6);
    out.note(line);
}

void add_sigcache_rate(const RegistrySnapshot& before, const RegistrySnapshot& after,
                       Outcome& out) {
    const double hits = static_cast<double>(counter_delta(before, after, "ebv.sigcache.hits"));
    const double misses =
        static_cast<double>(counter_delta(before, after, "ebv.sigcache.misses"));
    out.add("core.sigcache_hit_rate", 100.0 * ratio(hits, hits + misses), "%");
}

/// In the traced run, switch the program's tracer (and with it the
/// benchmark-side spans) on or off for one repetition.
void set_tracing(bool traced, bool on) {
    if (traced) obs::Tracer::global().set_enabled(on);
}

/// Percent by which traced repetitions were slower than untraced ones.
double overhead_pct(const std::vector<double>& traced, const std::vector<double>& untraced) {
    const double base = median(untraced);
    return base > 0 ? 100.0 * (median(traced) - base) / base : 0.0;
}

/// Per-layer metrics no replay of this workload produces read 0, so that
/// every workload prints the same names.
void add_absent(Outcome& out, const std::vector<std::pair<const char*, const char*>>& names) {
    for (const auto& [name, unit] : names) out.add(name, 0.0, unit);
}

const std::vector<std::pair<const char*, const char*>> kTxPoolLayers = {
    {"core.txpool_admit_us", "us"},
    {"core.txpool_template_ms", "ms"},
    {"core.txpool_evict_ms", "ms"}};
const std::vector<std::pair<const char*, const char*>> kIbdLayers = {
    {"ibd.stall_ms", "ms/sync"}, {"ibd.commit_ms", "ms/sync"}, {"ibd.window_occupancy", "blocks"}};
const std::vector<std::pair<const char*, const char*>> kBudgetLayers = {
    {"util.pool.efficiency", "ratio"}, {"util.pool.residual_ms", "ms/block"},
    {"budget_gap_pct", "%"}};

core::EbvNodeOptions node_options(const chain::ChainParams& params, util::ThreadPool& pool,
                                  core::SigCache& sigcache, bool pipelined) {
    core::EbvNodeOptions options;
    options.params = params;
    options.validator.script_pool = &pool;
    options.validator.sigcache = &sigcache;
    options.pipeline.enabled = pipelined;
    return options;
}

// ---- ibd -------------------------------------------------------------------

struct IbdState {
    Chain chain;          ///< the synced blocks, then the mutants' target
    std::size_t blocks;   ///< blocks synced per repetition
    std::size_t inputs;
    std::unique_ptr<core::SigCache> reference_cache;
    std::unique_ptr<core::EbvNode> reference;  ///< serial submit_block sync
};

Outcome run_ibd(const Args& args, util::ThreadPool& pool) {
    // ~200 blocks: the chain is cut where it holds `target_inputs` inputs;
    // one more block is the mutants' target.
    const std::uint32_t count = args.tiny ? 40 : 200;
    const std::size_t target_inputs = args.tiny ? 600 : 3600;
    Outcome out;
    std::vector<double> setup_times;
    IbdState s = repeated_setup(
        [&] {
            IbdState st{era_chain(args.seed, count, 0.2, target_inputs), 0, 0, nullptr,
                        nullptr};
            st.blocks = st.chain.blocks.size() - 1;
            st.inputs = input_count(st.chain.blocks, 0, st.blocks);
            st.reference_cache = std::make_unique<core::SigCache>();
            st.reference = std::make_unique<core::EbvNode>(
                node_options(st.chain.params, pool, *st.reference_cache, false));
            for (std::size_t b = 0; b < st.blocks; ++b)
                if (!st.reference->submit_block(st.chain.blocks[b]))
                    throw std::runtime_error("ibd: reference sync rejected a block");
            return st;
        },
        setup_times, args.tiny);
    const std::span<const core::EbvBlock> sync_blocks(s.chain.blocks.data(), s.blocks);

    const bool traced = args.trace;
    std::vector<double> walls_ms, rates, traced_ms, untraced_ms;
    const RegistrySnapshot reg_before;
    const PoolDelta pool_delta(pool);
    std::unique_ptr<core::SigCache> cache;
    std::unique_ptr<core::EbvNode> node;
    const std::int64_t loop_start = now_ns();
    const std::size_t min_reps = args.tiny ? 1 : 3;
    for (std::size_t rep = 0; rep < min_reps || seconds_since(loop_start) < args.seconds;
         ++rep) {
        // A fresh node and a cold sigcache per repetition, built untimed.
        node.reset();
        cache = std::make_unique<core::SigCache>();
        node = std::make_unique<core::EbvNode>(node_options(s.chain.params, pool, *cache, true));
        set_tracing(traced, rep % 2 == 0);
        const std::int64_t a = now_ns();
        ibd::BatchResult result;
        {
            CallSpan span(traced, "submit_blocks");
            result = node->submit_blocks(sync_blocks);
        }
        const double ms = static_cast<double>(now_ns() - a) / 1e6;
        set_tracing(traced, true);
        walls_ms.push_back(ms);
        rates.push_back(static_cast<double>(s.inputs) / (ms / 1e3));
        (rep % 2 == 0 ? traced_ms : untraced_ms).push_back(ms);

        out.attempted += s.blocks;
        out.failed += s.blocks - std::min(result.connected, s.blocks);
        if (!result.ok() && out.failures.size() < 16)
            out.failures.push_back("ibd: sync stopped: " +
                                   (result.failure ? result.failure->failure.describe()
                                                   : std::string("aborted")));
        out.check(result.pipelined, "ibd: submit_blocks did not take the pipelined path");
        out.check(node->status() == s.reference->status(),
                  "ibd: bit-vector set differs from the serial reference");
        out.check(node->headers().tip_hash() == s.reference->headers().tip_hash(),
                  "ibd: tip hash differs from the serial reference");
    }
    const RegistrySnapshot reg_after;

    const core::EbvBlock& next = s.chain.blocks[s.blocks];
    check_mutants(*node, next, args.seed, out);
    out.check(static_cast<bool>(node->submit_block(next)), "ibd: the next block was rejected");

    char line[160];
    std::snprintf(line, sizeof line, "ibd: %zu syncs of %zu blocks / %zu inputs",
                  walls_ms.size(), s.blocks, s.inputs);
    out.note(line);
    if (!traced) {
        add_end_to_end(out, setup_times, median(rates), median(walls_ms),
                       quantile(walls_ms, 0.95));
        return out;
    }

    const Budget budget = run_budget(s.chain, 0, s.blocks, pool, true, out);
    add_layer_metrics(budget.layers, out);
    add_sigcache_rate(reg_before, reg_after, out);
    add_absent(out, kTxPoolLayers);
    const double total_inputs = static_cast<double>(s.inputs * walls_ms.size());
    pool_delta.report(pool, total_inputs, out);
    add_budget_metrics(budget, pool.thread_count(), out);
    const double syncs = static_cast<double>(walls_ms.size());
    out.add("ibd.stall_ms",
            static_cast<double>(hist_sum_delta(reg_before, reg_after, "ebv.ibd.stall_ns")) /
                1e6 / syncs,
            "ms/sync");
    out.add("ibd.commit_ms",
            static_cast<double>(hist_sum_delta(reg_before, reg_after, "ebv.ibd.commit_ns")) /
                1e6 / syncs,
            "ms/sync");
    out.add("ibd.window_occupancy",
            ratio(static_cast<double>(
                      hist_sum_delta(reg_before, reg_after, "ebv.ibd.window_occupancy")),
                  static_cast<double>(
                      hist_count_delta(reg_before, reg_after, "ebv.ibd.window_occupancy"))),
            "blocks");
    out.add("obs.trace_overhead_pct", overhead_pct(traced_ms, untraced_ms), "%");
    out.add("core.status_mb", static_cast<double>(node->status_memory_bytes()) / (1 << 20),
            "MB");
    out.add("latency_p95_ms", quantile(walls_ms, 0.95), "ms");
    return out;
}

// ---- tip -------------------------------------------------------------------

struct TipState {
    Chain chain;             ///< prefix + tip blocks + the mutants' target
    std::size_t begin, end;  ///< the tip blocks
    std::unique_ptr<core::SigCache> cache;
    std::unique_ptr<core::EbvNode> node;  ///< synced to `begin`
};

Outcome run_tip(const Args& args, util::ThreadPool& pool) {
    // The funding chain, pre-synced in set-up, then 200 tip blocks of
    // exactly 50 inputs each, and one more such block as the mutants'
    // target. Every tip block does the same work, so the latency tail is
    // the pool's and the host's, not that of a seed's largest blocks; 200
    // connects per pass leave ten beyond each pass's p95.
    SpendShape shape;
    shape.rounds = (args.tiny ? 4 : 200) + 1;
    shape.round_inputs = args.tiny ? 40 : 50;
    const std::size_t min_connects = args.tiny ? 1 : 1000;
    Outcome out;
    std::vector<double> setup_times;
    TipState s = repeated_setup(
        [&] {
            TipState st{spend_chain(spend_inputs(args.seed, shape, pool)), 0, 0,
                        std::make_unique<core::SigCache>(), nullptr};
            st.end = st.chain.blocks.size() - 1;
            st.begin = st.end - (shape.rounds - 1);
            st.node = std::make_unique<core::EbvNode>(
                node_options(st.chain.params, pool, *st.cache, false));
            for (std::size_t b = 0; b < st.begin; ++b)
                if (!st.node->submit_block(st.chain.blocks[b]))
                    throw std::runtime_error("tip: pre-sync rejected a block");
            return st;
        },
        setup_times, args.tiny);
    const std::size_t inputs_per_pass = input_count(s.chain.blocks, s.begin, s.end);

    // Passes over the same tip blocks: connect each (timed), then roll the
    // pass back and empty the sigcache (untimed), so every pass connects
    // with the state and the cold cache of the first.
    const bool traced = args.trace;
    PassFigures figures;
    std::vector<double> traced_ms, untraced_ms;
    std::size_t connects = 0, passes = 0;
    const RegistrySnapshot reg_before;
    const PoolDelta pool_delta(pool);
    const std::int64_t loop_start = now_ns();
    for (;;) {
        set_tracing(traced, passes % 2 == 0);
        std::vector<double> pass_ms;
        double pass_ns = 0;
        for (std::size_t b = s.begin; b < s.end; ++b) {
            const std::int64_t a = now_ns();
            bool ok;
            {
                CallSpan span(traced, "submit_block");
                ok = static_cast<bool>(s.node->submit_block(s.chain.blocks[b]));
            }
            const std::int64_t ns = now_ns() - a;
            pass_ns += static_cast<double>(ns);
            pass_ms.push_back(static_cast<double>(ns) / 1e6);
            (passes % 2 == 0 ? traced_ms : untraced_ms).push_back(static_cast<double>(ns) / 1e6);
            ++connects;
            out.check(ok, "tip: block " + std::to_string(b) + " rejected");
            if (!ok) break;
        }
        set_tracing(traced, true);
        figures.add(static_cast<double>(
                        input_count(s.chain.blocks, s.begin, s.begin + pass_ms.size())),
                    pass_ns, pass_ms);
        ++passes;
        if (out.failed > 0 ||
            (connects >= min_connects && seconds_since(loop_start) >= args.seconds))
            break;
        for (std::size_t b = s.end; b-- > s.begin;)
            out.check(s.node->disconnect_tip(s.chain.blocks[b]), "tip: rollback failed");
        s.cache->clear();
    }
    const RegistrySnapshot reg_after;

    const core::EbvBlock& next = s.chain.blocks[s.end];
    check_mutants(*s.node, next, args.seed, out);
    out.check(static_cast<bool>(s.node->submit_block(next)), "tip: the next block was rejected");

    char line[160];
    std::snprintf(line, sizeof line,
                  "tip: %zu passes over %zu blocks / %zu inputs after %zu pre-synced blocks",
                  passes, s.end - s.begin, inputs_per_pass, s.begin);
    out.note(line);
    if (!traced) {
        figures.report(out, setup_times, "connects", s.end - s.begin);
        return out;
    }

    // The budget replays the first tip blocks holding ~1500 inputs.
    std::size_t budget_end = s.begin;
    while (budget_end < s.end && input_count(s.chain.blocks, s.begin, budget_end) < 1500)
        ++budget_end;
    const Budget budget = run_budget(s.chain, s.begin, budget_end, pool, false, out);
    add_layer_metrics(budget.layers, out);
    add_sigcache_rate(reg_before, reg_after, out);
    add_absent(out, kTxPoolLayers);
    pool_delta.report(pool, static_cast<double>(inputs_per_pass * passes), out);
    add_budget_metrics(budget, pool.thread_count(), out);
    add_absent(out, kIbdLayers);
    out.add("obs.trace_overhead_pct", overhead_pct(traced_ms, untraced_ms), "%");
    out.add("core.status_mb", static_cast<double>(s.node->status_memory_bytes()) / (1 << 20),
            "MB");
    out.add("latency_p95_ms", figures.p95(), "ms");
    return out;
}

// ---- mempool ---------------------------------------------------------------

struct MempoolState {
    /// Heap-held: the TxPool keeps a reference to its params.
    std::unique_ptr<SpendInputs> inputs;
    std::unique_ptr<core::SigCache> cache;
    std::unique_ptr<core::EbvNode> node;
    std::unique_ptr<core::TxPool> txpool;
};

Outcome run_mempool(const Args& args, util::ThreadPool& pool) {
    SpendShape shape;
    if (args.tiny) shape.rounds = 2;
    Outcome out;
    std::vector<double> setup_times;
    MempoolState s = repeated_setup(
        [&] {
            MempoolState st{
                std::make_unique<SpendInputs>(spend_inputs(args.seed, shape, pool)),
                std::make_unique<core::SigCache>(), nullptr, nullptr};
            st.node = std::make_unique<core::EbvNode>(
                node_options(st.inputs->params, pool, *st.cache, false));
            for (const core::EbvBlock& block : st.inputs->funding)
                if (!st.node->submit_block(block))
                    throw std::runtime_error("mempool: funding chain rejected");
            core::TxPoolOptions pool_options;
            pool_options.pool = &pool;
            pool_options.sigcache = st.cache.get();
            st.txpool = std::make_unique<core::TxPool>(st.inputs->params, st.node->headers(),
                                                       st.node->status(), pool_options);
            return st;
        },
        setup_times, args.tiny);

    const auto& hits = obs::Registry::global().counter("ebv.sigcache.hits");
    const auto& misses = obs::Registry::global().counter("ebv.sigcache.misses");
    const bool traced = args.trace;
    PassFigures figures;
    std::vector<double> traced_admit, untraced_admit;
    std::size_t passes = 0;
    std::vector<core::EbvBlock> connected;
    const RegistrySnapshot reg_before;
    const PoolDelta pool_delta(pool);
    const std::int64_t loop_start = now_ns();
    for (;;) {
        set_tracing(traced, passes % 2 == 0);
        std::vector<double> connect_ms;
        double pass_admit_ns = 0;
        std::size_t pass_txs = 0, admitted = 0;
        for (const auto& round : s.inputs->rounds) {
            std::int64_t a = now_ns();
            std::vector<core::TxAdmission> verdicts;
            {
                CallSpan span(traced, "submit_batch");
                verdicts = s.txpool->submit_batch(round);
            }
            const double ns = static_cast<double>(now_ns() - a);
            pass_admit_ns += ns;
            pass_txs += round.size();
            for (const core::TxAdmission v : verdicts) {
                out.check(v == core::TxAdmission::kAccepted,
                          std::string("mempool: admission verdict ") + core::to_string(v));
                admitted += v == core::TxAdmission::kAccepted;
            }

            core::EbvBlock block;
            {
                CallSpan span(traced, "build_template");
                block = s.txpool->build_template(s.inputs->coinbase_lock, round.size());
            }
            out.check(block.txs.size() == round.size() + 1,
                      "mempool: template does not hold the whole burst");

            const std::uint64_t hits0 = hits.value(), misses0 = misses.value();
            a = now_ns();
            bool ok;
            {
                CallSpan span(traced, "submit_block");
                ok = static_cast<bool>(s.node->submit_block(block));
            }
            connect_ms.push_back(static_cast<double>(now_ns() - a) / 1e6);
            out.check(ok, "mempool: template rejected");
            out.check(misses.value() == misses0 && hits.value() > hits0,
                      "mempool: template connect missed the sigcache");

            std::size_t evicted;
            {
                CallSpan span(traced, "evict_confirmed_spends");
                evicted = s.txpool->evict_confirmed_spends(block);
            }
            out.check(evicted == round.size() && s.txpool->size() == 0,
                      "mempool: pool not empty after eviction");
            connected.push_back(std::move(block));
            if (!ok) break;
        }
        set_tracing(traced, true);
        figures.add(static_cast<double>(admitted), pass_admit_ns, connect_ms);
        (passes % 2 == 0 ? traced_admit : untraced_admit)
            .push_back(pass_admit_ns / static_cast<double>(pass_txs));
        ++passes;
        // Roll the pass back and empty the sigcache (untimed): the next pass
        // admits the same transactions against the same state, cold.
        for (std::size_t b = connected.size(); b-- > 0;)
            out.check(s.node->disconnect_tip(connected[b]), "mempool: rollback failed");
        connected.clear();
        s.cache->clear();
        if (out.failed > 0 || seconds_since(loop_start) >= args.seconds) break;
    }
    const RegistrySnapshot reg_after;

    // The mutants' target: the first round's template, admitted afresh.
    {
        const auto& round = s.inputs->rounds.front();
        for (const core::TxAdmission v : s.txpool->submit_batch(round))
            out.check(v == core::TxAdmission::kAccepted, "mempool: re-admission failed");
        const core::EbvBlock next = s.txpool->build_template(s.inputs->coinbase_lock, round.size());
        check_mutants(*s.node, next, args.seed, out);
        out.check(static_cast<bool>(s.node->submit_block(next)),
                  "mempool: the next template was rejected");
        s.txpool->evict_confirmed_spends(next);
        out.check(s.txpool->size() == 0, "mempool: pool not empty after the last eviction");
    }

    char line[160];
    std::snprintf(line, sizeof line,
                  "mempool: %zu passes of %zu rounds (%zu txs / %zu inputs per pass)", passes,
                  s.inputs->rounds.size(), s.inputs->txs, s.inputs->inputs);
    out.note(line);
    if (!traced) {
        figures.report(out, setup_times, "template connects", s.inputs->rounds.size());
        return out;
    }

    // SV split over one pass of admissions, then the connect's probes.
    LayerTotals layers;
    core::SigCache replay_cache;
    for (const auto& round : s.inputs->rounds)
        out.check(replay_admission(round, replay_cache, layers),
                  "mempool: SV replay rejected a transaction or missed the sigcache");
    add_layer_metrics(layers, out);
    add_sigcache_rate(reg_before, reg_after, out);
    const std::vector<obs::Span> spans = obs::Tracer::global().snapshot();
    const std::vector<double> batch_ns = span_durations_ns(spans, "submit_batch");
    double batch_total_ns = 0;
    for (const double ns : batch_ns) batch_total_ns += ns;
    const double txs_per_batch =
        static_cast<double>(s.inputs->txs) / static_cast<double>(s.inputs->rounds.size());
    out.add("core.txpool_admit_us",
            ratio(batch_total_ns / 1e3, static_cast<double>(batch_ns.size()) * txs_per_batch),
            "us");
    out.add("core.txpool_template_ms",
            median(span_durations_ns(spans, "build_template")) / 1e6, "ms");
    out.add("core.txpool_evict_ms",
            median(span_durations_ns(spans, "evict_confirmed_spends")) / 1e6, "ms");
    pool_delta.report(pool, static_cast<double>(s.inputs->inputs * passes), out);
    add_absent(out, kBudgetLayers);
    add_absent(out, kIbdLayers);
    out.add("obs.trace_overhead_pct", overhead_pct(traced_admit, untraced_admit), "%");
    out.add("core.status_mb", static_cast<double>(s.node->status_memory_bytes()) / (1 << 20),
            "MB");
    out.add("latency_p95_ms", figures.p95(), "ms");
    return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{"ibd", "tip", "mempool"};
    return names;
}

Outcome run_workload(const Args& args, util::ThreadPool& pool) {
    if (args.workload == "ibd") return run_ibd(args, pool);
    if (args.workload == "tip") return run_tip(args, pool);
    if (args.workload == "mempool") return run_mempool(args, pool);
    throw std::invalid_argument("unknown workload: " + args.workload);
}

}  // namespace ebv::perf

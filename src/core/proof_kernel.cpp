#include "core/proof_kernel.hpp"

#include <cstdio>
#include <memory>
#include <mutex>

#include "chain/amount.hpp"
#include "core/sighash_cache.hpp"
#include "core/sv_batcher.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace ebv::core {

namespace {

class PhaseTimer {
public:
    explicit PhaseTimer(util::TimeCost& target) : target_(target) {}
    ~PhaseTimer() { target_.wall_ns += watch_.elapsed_ns(); }

private:
    util::TimeCost& target_;
    util::Stopwatch watch_;
};

/// Registry handles, resolved once; values survive Registry::reset().
struct KernelMetrics {
    obs::Counter& connects;
    obs::Counter& rejects;
    obs::Counter& txs;
    obs::Counter& inputs;
    obs::Counter& outputs;
    obs::Counter& proof_bytes;
    obs::Counter& sighash_bytes_saved;
    obs::Counter& pool_tasks;
    obs::Counter& pool_local_pops;
    obs::Counter& pool_steals;
    obs::Counter& pool_steal_attempts;
    obs::Histogram& pool_steal_ns;
    obs::Histogram& pool_barrier_wait_ns;
    obs::Histogram& pool_wakeup_ns;
    obs::Histogram& sv_parallel_ns;

    static KernelMetrics& get() {
        static KernelMetrics m{
            obs::Registry::global().counter("ebv.block.connects"),
            obs::Registry::global().counter("ebv.block.rejects"),
            obs::Registry::global().counter("ebv.block.txs"),
            obs::Registry::global().counter("ebv.block.inputs"),
            obs::Registry::global().counter("ebv.block.outputs"),
            obs::Registry::global().counter("ebv.block.proof_bytes"),
            obs::Registry::global().counter("ebv.crypto.sighash_bytes_saved"),
            obs::Registry::global().counter("ebv.pool.tasks"),
            obs::Registry::global().counter("ebv.pool.local_pops"),
            obs::Registry::global().counter("ebv.pool.steals"),
            obs::Registry::global().counter("ebv.pool.steal_attempts"),
            obs::Registry::global().histogram("ebv.pool.steal_ns"),
            obs::Registry::global().histogram("ebv.pool.barrier_wait_ns"),
            obs::Registry::global().histogram("ebv.pool.wakeup_ns"),
            obs::Registry::global().histogram("ebv.block.sv_parallel_ns"),
        };
        return m;
    }
};

/// Scheduler metrics of one pass: counter deltas, per-slot peak deque depth
/// (stealing scheduler; zeros under counter mode) and, when tracing, counter
/// tracks for queue latency and each slot's utilization (busy/wall, %).
void publish_pool_stats(const util::ThreadPool& pool, const util::PoolStats& before,
                        const std::vector<std::uint64_t>& slot_busy_before,
                        util::Nanoseconds pass_wall, bool tracing) {
    KernelMetrics& m = KernelMetrics::get();
    const util::PoolStats after = pool.stats();
    m.pool_tasks.inc(after.tasks - before.tasks);
    // `barrier_wait_ns` was exported as ebv.pool.steal_ns before the
    // stealing scheduler existed; the latter now reports real steal time
    // (docs/OBSERVABILITY.md).
    m.pool_barrier_wait_ns.observe(after.barrier_wait_ns - before.barrier_wait_ns);
    m.pool_steal_ns.observe(after.steal_ns - before.steal_ns);
    m.pool_wakeup_ns.observe(after.wakeup_ns - before.wakeup_ns);
    m.pool_local_pops.inc(after.local_pops - before.local_pops);
    m.pool_steals.inc(after.steals - before.steals);
    m.pool_steal_attempts.inc(after.steal_attempts - before.steal_attempts);

    obs::Tracer& tracer = obs::Tracer::global();
    char name[48];
    const std::vector<std::uint64_t> queue_peak = pool.slot_queue_depth_peak();
    for (std::size_t s = 0; s < queue_peak.size(); ++s) {
        std::snprintf(name, sizeof name, "ebv.pool.queue_depth.slot%zu", s);
        obs::Registry::global().gauge(name).set(static_cast<std::int64_t>(queue_peak[s]));
        if (tracing) tracer.record_counter(name, static_cast<std::int64_t>(queue_peak[s]));
    }
    if (!tracing) return;
    const std::uint64_t wakeups = after.wakeups - before.wakeups;
    if (wakeups > 0)
        tracer.record_counter("ebv.pool.wakeup_us",
                              static_cast<std::int64_t>(
                                  (after.wakeup_ns - before.wakeup_ns) / wakeups / 1000));
    const std::vector<std::uint64_t> slot_busy_after = pool.slot_busy_ns();
    for (std::size_t s = 0;
         s < slot_busy_after.size() && s < slot_busy_before.size() && pass_wall > 0; ++s) {
        const std::uint64_t busy = slot_busy_after[s] - slot_busy_before[s];
        std::snprintf(name, sizeof name, "ebv.pool.util_pct.slot%zu", s);
        tracer.record_counter(name, static_cast<std::int64_t>(100.0 * static_cast<double>(busy) /
                                                              static_cast<double>(pass_wall)));
    }
}

}  // namespace

void publish_block_connected(const EbvBlock& block) {
    KernelMetrics& m = KernelMetrics::get();
    std::uint64_t proof_bytes = 0;
    for (const EbvTransaction& tx : block.txs)
        for (const EbvInput& in : tx.inputs)
            proof_bytes += in.mbr.byte_size() + in.els.serialized_size();
    m.connects.inc();
    m.txs.inc(block.txs.size());
    m.inputs.inc(block.input_count());
    m.outputs.inc(block.output_count());
    m.proof_bytes.inc(proof_bytes);
}

void publish_block_rejected() { KernelMetrics::get().rejects.inc(); }

void ProofKernel::AtomicMin::lower_to(std::size_t v) {
    std::size_t cur = value.load(std::memory_order_relaxed);
    while (v < cur && !value.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

ProofKernel::ProofKernel(std::span<const EbvBlock> blocks, std::uint32_t first_height,
                         const chain::ChainParams& params, const EbvValidatorOptions& options)
    : blocks_(blocks),
      first_height_(first_height),
      params_(params),
      options_(options),
      job_begin_(blocks.size() + 1, 0),
      tx_begin_(blocks.size() + 1, 0),
      sv_min_(blocks.size()) {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        job_begin_[b] = jobs_.size();
        tx_begin_[b + 1] = tx_begin_[b] + blocks[b].txs.size();
        for (std::size_t t = 1; t < blocks[b].txs.size(); ++t) {
            for (std::size_t i = 0; i < blocks[b].txs[t].inputs.size(); ++i) {
                jobs_.push_back(Job{static_cast<std::uint32_t>(b),
                                    static_cast<std::uint32_t>(jobs_.size() - job_begin_[b]),
                                    static_cast<std::uint32_t>(t),
                                    static_cast<std::uint32_t>(i)});
            }
        }
    }
    job_begin_.back() = jobs_.size();
    verdicts_.resize(jobs_.size());
}

ProofKernel::PassTimes ProofKernel::run(HeaderLookup headers) {
    return run(headers, 0, [](std::size_t) {}, {}, nullptr);
}

ProofKernel::PassTimes ProofKernel::run(HeaderLookup headers, std::size_t prefix_jobs,
                                        PrefixBody prefix,
                                        std::span<const std::uint64_t> block_span_ids,
                                        util::CancelToken* cancel) {
    util::ThreadPool* const pool = options_.script_pool;
    const std::size_t slots = pool != nullptr ? pool->thread_count() : 1;
    const bool verify_scripts = options_.verify_scripts;

    // Lowest failing EV ordinal per block and lowest block with any failure.
    // Minima only ever decrease, so every job ranked below the final ones
    // was fully evaluated and resolve() is thread-count-invariant.
    std::vector<AtomicMin> ev_min(blocks_.size());
    AtomicMin min_fail_block;

    // Per-slot busy time: each slot is owned by one thread at a time, so no
    // synchronization is needed; used to apportion the pass's wall time.
    std::vector<std::uint64_t> ev_busy(slots, 0);
    std::vector<std::uint64_t> sv_busy(slots, 0);
    std::vector<std::uint64_t> prefix_busy(slots, 0);

    // Deferred batched signature checking (docs/CRYPTO.md): verdicts may
    // resolve late, at a batch drain, but land in the same verdict slots and
    // CAS-mins the inline path uses, so resolve() is identical either way.
    const auto resolve_sv = [&](std::size_t j, script::ScriptError err) {
        if (err == script::ScriptError::kOk) return;
        verdicts_[j].script = err;
        sv_min_[jobs_[j].block].lower_to(jobs_[j].ordinal);
        min_fail_block.lower_to(jobs_[j].block);
    };
    std::optional<SvBatcher> batcher;
    if (verify_scripts && options_.batch_verify)
        batcher.emplace(slots, resolve_sv, options_.sigcache);

    // Per-transaction sighash templates, built lazily by whichever worker
    // first reaches one of the transaction's inputs and shared by the rest
    // (immutable after construction). once_flag is neither movable nor
    // copyable, so the array lives behind a unique_ptr.
    const bool use_template = verify_scripts && options_.sighash_template;
    const std::size_t tx_count = use_template ? tx_begin_.back() : 0;
    std::vector<std::unique_ptr<TxSighashCache>> templates(tx_count);
    const auto template_once = std::make_unique<std::once_flag[]>(tx_count);

    // Worker-side detail spans, recorded with an explicit parent because a
    // pipelined block's span is still open (or not yet recorded) elsewhere.
    const bool trace_detail = obs::Tracer::global().detail();
    const obs::TraceContext context = obs::current_context();
    const auto record_detail = [&](const char* name, const char* category, const Job& job,
                                   util::Nanoseconds ns) {
        obs::Span span;
        span.name = name;
        span.category = category;
        span.trace_id = context.trace_id;
        span.span_id = obs::next_span_id();
        span.parent_id = block_span_ids.empty() ? context.span_id : block_span_ids[job.block];
        span.wall_ns = ns;
        span.start_ns = obs::Tracer::now_ns() - ns;
        span.value = job.ordinal;
        obs::Tracer::global().record(std::move(span));
    };

    const auto check_input = [&](std::size_t slot, std::size_t j) {
        const Job& job = jobs_[j];
        if (job.block > min_fail_block.value.load(std::memory_order_relaxed)) return;
        AtomicMin& block_ev_min = ev_min[job.block];
        if (job.ordinal > block_ev_min.value.load(std::memory_order_relaxed)) return;
        const EbvTransaction& tx = blocks_[job.block].txs[job.tx_index];
        const EbvInput& in = tx.inputs[job.input_index];

        util::Stopwatch watch;
        const EvStatus ev = ev_check_input(in, headers(in.height), first_height_ + job.block);
        const util::Nanoseconds ev_ns = watch.elapsed_ns();
        ev_busy[slot] += static_cast<std::uint64_t>(ev_ns);
        if (trace_detail) record_detail("ebv.ev.input", "ev", job, ev_ns);
        if (ev != EvStatus::kOk) {
            verdicts_[j].ev = ev;
            block_ev_min.lower_to(job.ordinal);
            min_fail_block.lower_to(job.block);
            return;
        }

        // SV, fused into the same job while the input is cache-hot.
        if (!verify_scripts ||
            job.ordinal > sv_min_[job.block].value.load(std::memory_order_relaxed))
            return;
        watch.restart();
        const TxSighashCache* cache = nullptr;
        if (use_template && sighash_template_pays(tx)) {
            // Template construction counts as SV time: it replaces the
            // per-input serialization the naive path would spend there.
            const std::size_t t = tx_begin_[job.block] + job.tx_index;
            std::call_once(template_once[t],
                           [&] { templates[t] = std::make_unique<TxSighashCache>(tx); });
            cache = templates[t].get();
        }
        if (batcher) {
            batcher->check(slot, j, tx, job.input_index, cache);
        } else {
            resolve_sv(j, sv_check_input(tx, job.input_index, cache, options_.sigcache));
        }
        const util::Nanoseconds sv_ns = watch.elapsed_ns();
        sv_busy[slot] += static_cast<std::uint64_t>(sv_ns);
        if (trace_detail) record_detail("ebv.sv.input", "sv", job, sv_ns);
    };

    const auto pass_body = [&](std::size_t slot, std::size_t index) {
        if (index >= prefix_jobs) return check_input(slot, index - prefix_jobs);
        util::Stopwatch watch;
        prefix(index);
        prefix_busy[slot] += static_cast<std::uint64_t>(watch.elapsed_ns());
    };

    const bool tracing = obs::Tracer::global().enabled();
    util::PoolStats pool_before{};
    std::vector<std::uint64_t> slot_busy_before;
    if (pool != nullptr) {
        pool_before = pool->stats();
        if (tracing) slot_busy_before = pool->slot_busy_ns();
    }
    util::Stopwatch pass_watch;
    const std::size_t pass_total = prefix_jobs + jobs_.size();
    if (pool != nullptr) {
        pool->parallel_for_slots(pass_total, pass_body, cancel);
    } else {
        for (std::size_t i = 0; i < pass_total; ++i) {
            if (i >= prefix_jobs && cancel != nullptr && cancel->cancelled()) break;
            pass_body(0, i);
        }
    }
    if (batcher) {
        // Drain the below-target remainders, one pool index per batcher
        // slot: at tens of inputs per block no slot reaches kBatchTarget in
        // the pass, so most curve work lands here and must not serialize.
        const auto drain = [&](std::size_t slot, std::size_t s) {
            util::Stopwatch watch;
            batcher->flush(s);
            sv_busy[slot] += static_cast<std::uint64_t>(watch.elapsed_ns());
        };
        if (pool != nullptr) {
            pool->parallel_for_slots(slots, drain);
        } else {
            drain(0, 0);
        }
    }
    const util::Nanoseconds pass_wall = pass_watch.elapsed_ns();

    KernelMetrics& m = KernelMetrics::get();
    std::uint64_t saved = 0;
    for (const auto& tpl : templates)
        if (tpl) saved += tpl->bytes_saved();
    if (saved > 0) m.sighash_bytes_saved.inc(saved);
    if (pool != nullptr)
        publish_pool_stats(*pool, pool_before, slot_busy_before, pass_wall, tracing);

    std::uint64_t ev_total = 0;
    std::uint64_t sv_total = 0;
    std::uint64_t prefix_total = 0;
    for (std::size_t s = 0; s < slots; ++s) {
        ev_total += ev_busy[s];
        sv_total += sv_busy[s];
        prefix_total += prefix_busy[s];
        if (sv_busy[s] > 0) m.sv_parallel_ns.observe(sv_busy[s]);
    }
    PassTimes times;
    times.prefix_busy_ns = prefix_total;
    const std::uint64_t busy_total = ev_total + sv_total + prefix_total;
    if (busy_total == 0) {
        times.ev = pass_wall;
        return times;
    }
    const auto share = [&](std::uint64_t part) {
        return static_cast<util::Nanoseconds>(static_cast<double>(pass_wall) *
                                              static_cast<double>(part) /
                                              static_cast<double>(busy_total));
    };
    times.ev = share(ev_total);
    times.prefix = share(prefix_total);
    times.sv = pass_wall - times.ev - times.prefix;
    return times;
}

std::optional<EbvValidationFailure> ProofKernel::resolve(std::size_t b,
                                                         const BitVectorSet& status,
                                                         const SpentOverlay* overlay,
                                                         EbvTimings& timings) const {
    const EbvBlock& block = blocks_[b];
    const std::uint32_t height = first_height_ + static_cast<std::uint32_t>(b);
    std::unordered_set<std::uint64_t> spent_in_block;
    chain::Amount total_fees = 0;

    std::size_t j = job_begin_[b];
    for (std::size_t t = 1; t < block.txs.size(); ++t) {
        const EbvTransaction& tx = block.txs[t];
        chain::Amount value_in = 0;
        for (std::size_t i = 0; i < tx.inputs.size(); ++i, ++j) {
            const EbvInput& in = tx.inputs[i];
            if (verdicts_[j].ev != EvStatus::kOk)
                return EbvValidationFailure{to_ebv_error(verdicts_[j].ev), t, i};

            // UV: the bit at the authenticated absolute position must still
            // be 1, in the committed set and in the pending-spend overlay.
            {
                PhaseTimer timer(timings.uv);
                const std::uint32_t position = in.absolute_position();
                const std::uint64_t key = spent_key(in.height, position);
                if (!spent_in_block.insert(key).second)
                    return EbvValidationFailure{EbvError::kDoubleSpendInBlock, t, i};
                if ((overlay != nullptr && overlay->count(key) != 0) ||
                    !status.check_unspent(in.height, position))
                    return EbvValidationFailure{EbvError::kUnspentFailed, t, i};
            }

            PhaseTimer timer(timings.other);
            if (in.els.is_coinbase() && height < in.height + params_.coinbase_maturity)
                return EbvValidationFailure{EbvError::kImmatureCoinbaseSpend, t, i};
            // Guarded accumulation: the referenced values are EV-authenticated,
            // but nothing bounds their *sum* — unchecked += is the classic
            // inflation overflow.
            if (!chain::add_money(value_in, in.els.outputs[in.out_index].value))
                return EbvValidationFailure{EbvError::kValueOutOfRange, t, i};
        }

        PhaseTimer timer(timings.other);
        const chain::Amount value_out = tx.total_output_value();
        if (value_in < value_out) return EbvValidationFailure{EbvError::kNegativeFee, t};
        if (!chain::add_money(total_fees, value_in - value_out))
            return EbvValidationFailure{EbvError::kValueOutOfRange, t};
    }

    {
        PhaseTimer timer(timings.other);
        if (block.txs[0].total_output_value() > params_.subsidy_at(height) + total_fees)
            return EbvValidationFailure{EbvError::kCoinbaseValueTooHigh, 0};
    }

    // SV verdicts form their own phase after all EV/UV/value checks, keeping
    // the phase order of the serial pipeline.
    const std::size_t sv = sv_min_[b].value.load(std::memory_order_relaxed);
    if (sv < job_begin_[b + 1] - job_begin_[b]) {
        const Job& job = jobs_[job_begin_[b] + sv];
        return EbvValidationFailure{EbvError::kScriptFailure, job.tx_index, job.input_index,
                                    verdicts_[job_begin_[b] + sv].script};
    }
    return std::nullopt;
}

}  // namespace ebv::core

#include "ibd/pipeline.hpp"

#include <atomic>
#include <cstdlib>
#include <optional>
#include <vector>

#include "core/proof_kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/stopwatch.hpp"

namespace ebv::ibd {

namespace {

using core::BitVectorSet;
using core::EbvBlock;
using core::EbvInput;
using core::EbvValidationFailure;

/// Registry handles, resolved once (values survive Registry::reset()).
struct IbdMetrics {
    obs::Counter& windows;
    obs::Histogram& window_occupancy;
    obs::Histogram& stall_ns;
    obs::Histogram& commit_ns;
    obs::Gauge& blocks_inflight;

    static IbdMetrics& get() {
        static IbdMetrics m{
            obs::Registry::global().counter("ebv.ibd.windows"),
            obs::Registry::global().histogram(
                "ebv.ibd.window_occupancy",
                obs::Histogram::exponential_bounds(1, 2.0, 10)),
            obs::Registry::global().histogram("ebv.ibd.stall_ns"),
            obs::Registry::global().histogram("ebv.ibd.commit_ns"),
            obs::Registry::global().gauge("ebv.ibd.blocks_inflight"),
        };
        return m;
    }
};

/// Spends recorded by committed blocks, partitioned by status shard,
/// awaiting application inside the next parallel pass.
struct DeferredSpends {
    std::array<std::vector<BitVectorSet::SpentRecord>, BitVectorSet::kShardCount> by_shard;
    std::size_t total = 0;

    void add(std::uint32_t height, std::uint32_t position) {
        by_shard[BitVectorSet::shard_of(height)].push_back({height, position});
        ++total;
    }
    [[nodiscard]] bool empty() const { return total == 0; }
    void clear() {
        for (auto& v : by_shard) v.clear();
        total = 0;
    }
};

}  // namespace

PipelineOptions PipelineOptions::from_env(PipelineOptions base) {
    if (const char* v = std::getenv("EBV_PIPELINE"))
        base.enabled = std::strtoul(v, nullptr, 10) != 0;
    if (const char* v = std::getenv("EBV_PIPELINE_WINDOW")) {
        const unsigned long w = std::strtoul(v, nullptr, 10);
        if (w > 0) base.window = static_cast<std::size_t>(w);
    }
    return base;
}

BatchResult Pipeline::run(std::span<const core::EbvBlock> blocks) {
    return run(blocks, [](const core::EbvBlock&, std::uint32_t) {});
}

BatchResult Pipeline::run(std::span<const core::EbvBlock> blocks, CommitHook on_commit) {
    BatchResult result;
    result.pipelined = true;
    util::Stopwatch run_watch;
    IbdMetrics& m = IbdMetrics::get();

    // Causal root for the whole IBD run: every window span nests under it,
    // blocks under their window, worker-side EV/SV/shard spans under their
    // block (see docs/OBSERVABILITY.md).
    obs::ScopedSpan run_span("ebv.ibd.run", "ibd");
    run_span.set_value(static_cast<std::int64_t>(blocks.size()));

    const std::size_t W = options_.window == 0 ? 1 : options_.window;

    // Spends of already-committed blocks, to be applied inside the next
    // window's parallel pass ("stage 3 joins the parallel region").
    DeferredSpends deferred;

    // Applies `deferred` on the calling thread, skipping shards a parallel
    // pass already handled. Used for the final flush and for completing a
    // cancelled pass — committed blocks must always end up fully applied.
    std::array<std::atomic<bool>, BitVectorSet::kShardCount> shard_done{};
    const auto flush_deferred_serial = [&] {
        util::Stopwatch watch;
        for (std::size_t s = 0; s < BitVectorSet::kShardCount; ++s) {
            if (deferred.by_shard[s].empty()) continue;
            if (shard_done[s].load(std::memory_order_relaxed)) continue;
            status_.spend_shard(s, deferred.by_shard[s].data(), deferred.by_shard[s].size());
        }
        deferred.clear();
        const auto ns = watch.elapsed_ns();
        result.timings.update.wall_ns += ns;
        m.commit_ns.observe(static_cast<std::uint64_t>(ns));
    };

    std::size_t batch_index = 0;
    while (batch_index < blocks.size()) {
        if (cancel_.cancelled()) {
            flush_deferred_serial();
            result.aborted = true;
            break;
        }

        const std::uint32_t window_base = static_cast<std::uint32_t>(headers_.size());
        const std::size_t window_len = std::min(W, blocks.size() - batch_index);
        const std::span<const EbvBlock> window = blocks.subspan(batch_index, window_len);

        obs::ScopedSpan window_span("ebv.ibd.window", "ibd");
        window_span.set_value(window_base);
        const std::uint64_t window_span_id = window_span.span_id();
        const std::uint64_t trace_id = obs::current_context().trace_id;
        const bool tracing = window_span_id != 0;
        const bool trace_detail = obs::Tracer::global().detail();

        // ---- Stage 1: structural pass, serial block order ------------------
        // Intra-block only, so running it for the whole window up front
        // cannot change any verdict a serial loop would reach. The window is
        // truncated at the first structural failure; its tuple is reported
        // only if every earlier block commits (a serial loop would have
        // stopped at an earlier resolution failure otherwise).
        util::Stopwatch stall_watch;
        std::size_t accepted = window_len;
        std::optional<EbvValidationFailure> structural_failure;
        for (std::size_t b = 0; b < window_len; ++b) {
            if (auto failure = core::check_block_structure(window[b], params_)) {
                structural_failure = *failure;
                accepted = b;
                break;
            }
        }
        const std::span<const EbvBlock> checked = window.first(accepted);
        core::ProofKernel kernel(checked, window_base, params_, validator_);

        // Block spans get their ids up front: worker-side detail spans
        // parent under them while the blocks are still mid-validation; the
        // spans themselves are recorded at stage-3 resolution, which is fine
        // — exporters don't require parents to be recorded first.
        std::vector<std::uint64_t> block_span_ids(tracing ? accepted : 0);
        for (auto& id : block_span_ids) id = obs::next_span_id();

        // Shard-apply jobs for the previous window's spends ride in front of
        // the proof jobs in the kernel's parallel pass.
        std::array<std::size_t, BitVectorSet::kShardCount> active_shards{};
        std::size_t shard_jobs = 0;
        for (std::size_t s = 0; s < BitVectorSet::kShardCount; ++s) {
            shard_done[s].store(deferred.by_shard[s].empty(), std::memory_order_relaxed);
            if (!deferred.by_shard[s].empty()) active_shards[shard_jobs++] = s;
        }
        const auto apply_shard = [&](std::size_t index) {
            util::Stopwatch watch;
            const std::size_t s = active_shards[index];
            status_.spend_shard(s, deferred.by_shard[s].data(), deferred.by_shard[s].size());
            shard_done[s].store(true, std::memory_order_relaxed);
            if (!trace_detail) return;
            const util::Nanoseconds ns = watch.elapsed_ns();
            obs::Span span;
            span.name = "ebv.ibd.shard_apply";
            span.category = "commit";
            span.trace_id = trace_id;
            span.span_id = obs::next_span_id();
            span.parent_id = window_span_id;
            span.wall_ns = ns;
            span.start_ns = obs::Tracer::now_ns() - ns;
            span.value = static_cast<std::int64_t>(s);
            obs::Tracer::global().record(std::move(span));
        };
        // Inter-block dependency: heights inside the window resolve to
        // pending (structurally-checked, not-yet-committed) headers.
        const auto header_at = [&](std::uint32_t h) -> const chain::BlockHeader* {
            if (h < window_base) return headers_.at(h);
            return h - window_base < accepted ? &checked[h - window_base].header : nullptr;
        };

        // ---- Stage 2 + deferred stage 3: one parallel region ---------------
        m.windows.inc();
        m.window_occupancy.observe(static_cast<std::uint64_t>(accepted));
        m.blocks_inflight.set(static_cast<std::int64_t>(accepted));
        const std::int64_t stall_before_pass = stall_watch.elapsed_ns();
        const util::Nanoseconds pass_start_ns = tracing ? obs::Tracer::now_ns() : 0;
        core::ProofKernel::PassTimes pass;
        try {
            pass = kernel.run(header_at, shard_jobs, apply_shard, block_span_ids, &cancel_);
        } catch (...) {
            // A proof body threw (e.g. bad_alloc): committed blocks must
            // still end up fully applied before unwinding.
            flush_deferred_serial();
            m.blocks_inflight.set(0);
            throw;
        }
        result.timings.ev.wall_ns += pass.ev;
        result.timings.sv.wall_ns += pass.sv;
        result.timings.update.wall_ns += pass.prefix;
        if (pass.prefix_busy_ns > 0) m.commit_ns.observe(pass.prefix_busy_ns);

        if (cancel_.cancelled()) {
            // The pass may have skipped both shard and proof chunks: finish
            // applying committed blocks' spends, discard the window.
            flush_deferred_serial();
            m.blocks_inflight.set(0);
            result.aborted = true;
            break;
        }
        deferred.clear();  // fully applied by the pass

        // ---- Stage 3: resolve + commit, serial block order -----------------
        // The kernel's in-order resolve, with UV against the spends of
        // blocks committed earlier in this window (the pending overlay), so
        // the first failure is the serial one.
        stall_watch.restart();
        DeferredSpends fresh;          // spends of blocks committed below
        core::SpentOverlay overlay;    // the same spends, for UV
        bool window_failed = false;
        bool aborted_mid_window = false;
        for (std::size_t b = 0; b < accepted; ++b) {
            if (cancel_.cancelled()) {
                aborted_mid_window = true;
                break;
            }
            const EbvBlock& block = checked[b];
            const std::uint32_t height = window_base + static_cast<std::uint32_t>(b);
            if (auto failure = kernel.resolve(b, status_, &overlay, result.timings)) {
                result.failure = PipelineFailure{batch_index + b, height, *failure};
                window_failed = true;
                break;
            }

            // Commit: install header + status vector now; spent bits join
            // the next window's parallel pass via `fresh`.
            util::Stopwatch commit_watch;
            const bool linked = headers_.append(block.header);
            EBV_ENSURES(linked);
            status_.insert_block(height, static_cast<std::uint32_t>(block.output_count()));
            for (std::size_t t = 1; t < block.txs.size(); ++t) {
                for (const EbvInput& in : block.txs[t].inputs) {
                    const std::uint32_t position = in.absolute_position();
                    fresh.add(in.height, position);
                    overlay.insert(core::spent_key(in.height, position));
                }
            }
            on_commit(block, height);
            result.timings.update.wall_ns += commit_watch.elapsed_ns();

            if (tracing) {
                // The block's causal interval: from the start of the parallel
                // pass that validated its inputs to its commit here. Recorded
                // with the pre-allocated id its worker spans parented under.
                obs::Span block_span;
                block_span.name = "ebv.ibd.block";
                block_span.category = "block";
                block_span.trace_id = trace_id;
                block_span.span_id = block_span_ids[b];
                block_span.parent_id = window_span_id;
                block_span.start_ns = pass_start_ns;
                block_span.wall_ns = obs::Tracer::now_ns() - pass_start_ns;
                block_span.value = height;
                obs::Tracer::global().record(std::move(block_span));
            }

            ++result.connected;
            result.timings.inputs += block.input_count();
            result.timings.outputs += block.output_count();
            core::publish_block_connected(block);
        }

        if (aborted_mid_window) {
            // Cancelled between blocks (e.g. from the commit hook): blocks
            // already committed this window keep their spends applied; the
            // rest of the window is discarded unvalidated.
            deferred = std::move(fresh);
            for (auto& flag : shard_done) flag.store(false, std::memory_order_relaxed);
            flush_deferred_serial();
            m.blocks_inflight.set(0);
            result.aborted = true;
            break;
        }

        // A structural failure is reported only when every block before it
        // committed — otherwise the earlier resolution failure won, exactly
        // as in the serial loop.
        if (!window_failed && structural_failure.has_value()) {
            result.failure = PipelineFailure{batch_index + accepted,
                                             window_base + static_cast<std::uint32_t>(accepted),
                                             *structural_failure};
            window_failed = true;
        }

        const std::int64_t stall_after_pass = stall_watch.elapsed_ns();
        m.stall_ns.observe(static_cast<std::uint64_t>(stall_before_pass + stall_after_pass));
        result.timings.other.wall_ns += stall_before_pass;
        m.blocks_inflight.set(0);

        deferred = std::move(fresh);
        for (auto& flag : shard_done) flag.store(false, std::memory_order_relaxed);
        if (window_failed) {
            core::publish_block_rejected();
            flush_deferred_serial();
            break;
        }
        batch_index += window_len;
    }

    // Final flush: the last window's spends haven't ridden a pass yet.
    if (!deferred.empty()) {
        util::Stopwatch watch;
        std::vector<BitVectorSet::SpentRecord> all;
        all.reserve(deferred.total);
        for (const auto& shard : deferred.by_shard)
            all.insert(all.end(), shard.begin(), shard.end());
        status_.spend_batch(all, validator_.script_pool);
        deferred.clear();
        const auto ns = watch.elapsed_ns();
        result.timings.update.wall_ns += ns;
        m.commit_ns.observe(static_cast<std::uint64_t>(ns));
    }

    result.wall_ns = static_cast<std::uint64_t>(run_watch.elapsed_ns());
    return result;
}

}  // namespace ebv::ibd

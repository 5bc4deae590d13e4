// The one proof-check kernel (paper §IV-D) behind both block-connect paths:
// EbvNode::submit_block runs it over one block, ibd::Pipeline over a window
// of W consecutive blocks. It has three parts:
//
//   jobs       one fused EV+SV job per non-coinbase input of every block;
//   run()      one parallel pass over all jobs on the script pool: EV (the
//              Merkle branch folds to the stored root), then SV (the script
//              run, inline or through core::SvBatcher), out of order;
//   resolve()  per block, in input order: the pass's EV verdict, UV (the bit
//              test, in-block double spend, an optional pending-spend
//              overlay), maturity, value, fee and coinbase rules, then the
//              block's first SV verdict.
//
// Verdicts are recorded per input. A job is skipped only when a failure
// ranked before it (an earlier block, or a lower input of its own block) is
// already recorded, so every verdict resolve() reads was fully evaluated and
// the reported EbvValidationFailure is the one a serial input-at-a-time
// check hits first, for every thread count, window and batching mode.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "chain/params.hpp"
#include "core/bitvector_set.hpp"
#include "core/ebv_validator.hpp"

namespace ebv::core {

/// Key of one spent output (height, absolute position) in a SpentOverlay.
[[nodiscard]] inline std::uint64_t spent_key(std::uint32_t height, std::uint32_t position) {
    return static_cast<std::uint64_t>(height) << 32 | position;
}

/// Outputs spent by blocks that resolved earlier in the same window but are
/// not yet applied to the bit-vector set; resolve() fails UV on them.
using SpentOverlay = std::unordered_set<std::uint64_t>;

/// Per-block counters shared by both connect paths (`ebv.block.connects`,
/// `txs`, `inputs`, `outputs`, `proof_bytes`; `ebv.block.rejects`).
void publish_block_connected(const EbvBlock& block);
void publish_block_rejected();

class ProofKernel {
public:
    /// The header at a height as the checked blocks see it (nullptr = none).
    using HeaderLookup = util::FunctionRef<const chain::BlockHeader*(std::uint32_t)>;
    /// Caller work that shares the pass's parallel region, run as indices
    /// [0, prefix_jobs) ahead of the proof jobs.
    using PrefixBody = util::FunctionRef<void(std::size_t)>;

    /// The pass's wall time apportioned by per-slot busy time, so the parts
    /// add up to the wall clock while parallel speedup stays visible.
    struct PassTimes {
        util::Nanoseconds ev = 0;
        util::Nanoseconds sv = 0;
        util::Nanoseconds prefix = 0;
        std::uint64_t prefix_busy_ns = 0;  ///< summed over slots
    };

    /// Builds the jobs of `blocks`, which sit at consecutive heights from
    /// `first_height`. The blocks must have passed check_block_structure()
    /// and must outlive the kernel.
    ProofKernel(std::span<const EbvBlock> blocks, std::uint32_t first_height,
                const chain::ChainParams& params, const EbvValidatorOptions& options);

    /// The parallel EV+SV pass on options.script_pool (inline without one).
    /// Per-input detail spans parent under `block_span_ids[b]`, or under the
    /// caller's current span when empty. A fired `cancel` skips chunks not
    /// yet started; the verdicts are then incomplete and must not be read.
    PassTimes run(HeaderLookup headers);
    PassTimes run(HeaderLookup headers, std::size_t prefix_jobs, PrefixBody prefix,
                  std::span<const std::uint64_t> block_span_ids, util::CancelToken* cancel);

    /// Resolve block `b` after run(); adds its UV and value-rule time to
    /// `timings.uv` / `timings.other`. Returns the first failure, if any.
    [[nodiscard]] std::optional<EbvValidationFailure> resolve(std::size_t b,
                                                              const BitVectorSet& status,
                                                              const SpentOverlay* overlay,
                                                              EbvTimings& timings) const;

private:
    struct Job {
        std::uint32_t block;    ///< index into blocks_
        std::uint32_t ordinal;  ///< input ordinal within its block
        std::uint32_t tx_index;
        std::uint32_t input_index;
    };
    struct Verdict {
        EvStatus ev = EvStatus::kOk;
        script::ScriptError script = script::ScriptError::kOk;
    };
    /// CAS-min holder that can live in a vector sized at runtime.
    struct AtomicMin {
        std::atomic<std::size_t> value{std::numeric_limits<std::size_t>::max()};
        void lower_to(std::size_t v);
    };

    std::span<const EbvBlock> blocks_;
    std::uint32_t first_height_;
    const chain::ChainParams& params_;
    EbvValidatorOptions options_;
    std::vector<Job> jobs_;
    std::vector<std::size_t> job_begin_;  ///< per block, into jobs_; back() = jobs_.size()
    std::vector<std::size_t> tx_begin_;   ///< per block, into the window's tx ordinals
    std::vector<Verdict> verdicts_;
    std::vector<AtomicMin> sv_min_;  ///< per block: lowest failing SV ordinal
};

}  // namespace ebv::core

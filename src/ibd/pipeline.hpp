// ebv::ibd — pipelined inter-block validation for initial block download.
//
// The serial IBD loop (EbvNode::submit_block per block) leaves the thread
// pool idle between blocks: block N+1 cannot start until block N's
// spent-bit update finishes, even though proof checking (EV+SV) touches no
// shared state. This subsystem overlaps work *across* blocks with a
// bounded-lookahead window W:
//
//   stage 1  structural pass       serial, in block order
//            (coinbase shape, stake positions, Merkle root, value ranges)
//   stage 2  fused EV+SV proofs    out of order, all W blocks at once: the
//                                  core::ProofKernel pass EbvNode::submit_block
//                                  runs over one block — plus the *previous*
//                                  window's sharded spent-bit application,
//                                  which rides the same parallel region
//   stage 3  resolve + commit      serial, in block order: the kernel's
//                                  resolve with UV against the pending-spend
//                                  overlay, then header/vector install
//
// Inter-block dependencies are tracked explicitly: an input in block N+k
// that spends an output created inside the window resolves its header from
// the window's pending headers (EV), and one spending an output *spent*
// earlier in the window is caught by the pending-spend overlay (UV) —
// validation runs against the state a serial loop would have committed.
//
// Failure semantics are deterministic: the first failing block (in height
// order) reports exactly the EbvValidationFailure tuple the serial loop
// reports, blocks before it commit, blocks after it never touch state.
// Pipeline::cancel() aborts an in-flight run between chunks (CancelToken):
// the current window is unwound (never committed) and every
// already-committed block is left fully applied, so a cancelled run can be
// resumed with a fresh run() on the same state.
#pragma once

#include <span>

#include "chain/header_index.hpp"
#include "chain/params.hpp"
#include "core/bitvector_set.hpp"
#include "core/ebv_transaction.hpp"
#include "ibd/options.hpp"
#include "util/thread_pool.hpp"

namespace ebv::ibd {

class Pipeline {
public:
    /// Per-block commit notification for caller bookkeeping (block stores,
    /// output-count tables). Invoked in height order after the block is
    /// fully validated and its header + status vector are installed; its
    /// spent bits may still be pending, but are guaranteed applied — or the
    /// block reported in BatchResult as never committed — by return.
    using CommitHook = util::FunctionRef<void(const core::EbvBlock&, std::uint32_t)>;

    /// `validator` configures the proof checks exactly as it does for
    /// EbvNode::submit_block (core::ProofKernel): its script_pool runs the
    /// window's parallel pass and the final spent-bit flush.
    Pipeline(const chain::ChainParams& params, chain::HeaderIndex& headers,
             core::BitVectorSet& status, PipelineOptions options,
             const core::EbvValidatorOptions& validator)
        : params_(params),
          headers_(headers),
          status_(status),
          options_(options),
          validator_(validator) {}

    /// Validate and connect `blocks` on top of the current tip. Publishes
    /// `ebv.ibd.*` metrics (docs/OBSERVABILITY.md). Not re-entrant.
    BatchResult run(std::span<const core::EbvBlock> blocks, CommitHook on_commit);
    BatchResult run(std::span<const core::EbvBlock> blocks);

    /// Cooperatively abort an in-flight run() (callable from any thread or
    /// from the commit hook). Already-committed blocks stay fully applied;
    /// the in-flight window is discarded.
    void cancel() { cancel_.cancel(); }
    [[nodiscard]] bool cancel_requested() const { return cancel_.cancelled(); }
    /// Re-arm a pipeline whose previous run() was cancelled.
    void reset_cancel() { cancel_.reset(); }

private:
    const chain::ChainParams& params_;
    chain::HeaderIndex& headers_;
    core::BitVectorSet& status_;
    PipelineOptions options_;
    core::EbvValidatorOptions validator_;
    util::CancelToken cancel_;
};

}  // namespace ebv::ibd

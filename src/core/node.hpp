// The EBV validator node: memory-resident headers + bit-vector set + the
// EBV validation pipeline, with optional flat-file block persistence. The
// counterpart of chain::BitcoinNode in every Fig 14-18 comparison.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "chain/header_index.hpp"
#include "chain/params.hpp"
#include "core/bitvector_set.hpp"
#include "core/ebv_validator.hpp"
#include "ibd/options.hpp"
#include "storage/flat_store.hpp"

namespace ebv::core {

struct EbvNodeOptions {
    chain::ChainParams params = chain::ChainParams::simnet();
    /// Directory for block bodies; empty = don't persist blocks.
    std::string data_dir;
    EbvValidatorOptions validator;
    /// Inter-block IBD pipelining for submit_blocks (EBV_PIPELINE /
    /// EBV_PIPELINE_WINDOW override at runtime).
    ibd::PipelineOptions pipeline;
};

class EbvNode {
public:
    explicit EbvNode(const EbvNodeOptions& options);

    /// Validate and connect the next block (height = tip + 1): the
    /// structural pass, then core::ProofKernel over this one block, then
    /// the bit-vector update. The node is untouched on failure. Publishes
    /// per-stage histograms and per-block counters under `ebv.block.*` and
    /// one span per stage (see docs/OBSERVABILITY.md).
    util::Result<EbvTimings, EbvValidationFailure> submit_block(const EbvBlock& block);

    /// Validate and connect a batch of consecutive blocks, pipelined across
    /// blocks when options.pipeline (after EBV_PIPELINE et al.) enables it,
    /// serial block-at-a-time otherwise. Both paths accept/reject the same
    /// blocks with the same failure tuple (docs/PIPELINE.md). Defined in
    /// src/ibd/submit.cpp — callers must link ebv_ibd.
    ibd::BatchResult submit_blocks(std::span<const EbvBlock> blocks);

    /// Reorg support: disconnect the tip. The caller supplies the tip block
    /// (EBV validators don't retain bodies unless a block store is
    /// configured); it must match the tip header. Un-spends every input bit
    /// and removes the block's own vector.
    [[nodiscard]] bool disconnect_tip(const EbvBlock& block);

    [[nodiscard]] const chain::HeaderIndex& headers() const { return headers_; }
    [[nodiscard]] BitVectorSet& status() { return status_; }
    [[nodiscard]] const BitVectorSet& status() const { return status_; }
    [[nodiscard]] storage::FlatStore<EbvBlock>* block_store() {
        return block_store_.get();
    }
    [[nodiscard]] std::uint32_t next_height() const {
        return headers_.empty() ? 0 : headers_.height() + 1;
    }

    /// Snapshot persistence ("assumeutxo"-style fast restart): the entire
    /// node state an EBV validator needs — headers, per-height output
    /// counts, and the bit-vector set — is small enough to write and read
    /// in milliseconds, so a restarting node skips IBD entirely.
    void save_snapshot(const std::string& path) const;
    static util::Result<std::unique_ptr<EbvNode>, util::DecodeError> load_snapshot(
        const std::string& path, const EbvNodeOptions& options);

    /// The Fig 14 metric: memory the status data requires.
    [[nodiscard]] std::size_t status_memory_bytes() const {
        return status_.memory_bytes();
    }
    [[nodiscard]] std::size_t status_dense_memory_bytes() const {
        return status_.dense_memory_bytes();
    }

private:
    EbvNodeOptions options_;
    chain::HeaderIndex headers_;
    BitVectorSet status_;
    /// Output count per connected height (4 bytes/block) — needed to
    /// recreate fully-spent vectors when a reorg un-spends into them.
    std::vector<std::uint32_t> output_counts_;
    std::unique_ptr<storage::FlatStore<EbvBlock>> block_store_;
};

}  // namespace ebv::core

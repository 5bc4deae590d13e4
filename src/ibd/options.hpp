// Option and result types for the inter-block IBD pipeline (`ebv::ibd`).
// Header-only so core::EbvNodeOptions can embed PipelineOptions without a
// link-time dependency on ebv_ibd; the pipeline itself — and the definition
// of core::EbvNode::submit_blocks — lives in src/ibd/ (link ebv_ibd).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/ebv_validator.hpp"

namespace ebv::ibd {

struct PipelineOptions {
    /// Off by default: submit_blocks falls back to the serial
    /// block-at-a-time loop. The EBV_PIPELINE environment knob (1/0)
    /// overrides this in from_env().
    bool enabled = false;

    /// Lookahead window W: how many blocks may have proof checks in flight
    /// at once. EBV_PIPELINE_WINDOW overrides. W = 1 degenerates to an
    /// almost-serial schedule — spent-bit application still rides the next
    /// window's parallel pass.
    std::size_t window = 16;

    /// Resolve EBV_PIPELINE / EBV_PIPELINE_WINDOW on top of `base`.
    /// (Defined in src/ibd/pipeline.cpp.)
    static PipelineOptions from_env(PipelineOptions base);
};

/// Where and why a batch stopped. `failure` is bit-for-bit the tuple a
/// serial EbvNode::submit_block loop reports for the same chain —
/// the pipeline's determinism contract (docs/PIPELINE.md).
struct PipelineFailure {
    std::size_t block_index = 0;  ///< index into the submitted batch
    std::uint32_t height = 0;     ///< absolute chain height of that block
    core::EbvValidationFailure failure;
};

struct BatchResult {
    std::size_t connected = 0;  ///< blocks validated and committed
    std::optional<PipelineFailure> failure;
    bool aborted = false;    ///< stopped by Pipeline::cancel(), state consistent
    bool pipelined = false;  ///< false = the serial fallback path ran
    core::EbvTimings timings;  ///< aggregate per-stage breakdown
    std::uint64_t wall_ns = 0;  ///< end-to-end wall time of the batch

    [[nodiscard]] bool ok() const { return !failure.has_value() && !aborted; }
};

}  // namespace ebv::ibd

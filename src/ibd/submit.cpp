// core::EbvNode::submit_blocks lives here, not in core/node.cpp, so that
// ebv_core carries no link-time dependency on the pipeline: the batch entry
// point is declared in core/node.hpp (with header-only ibd/options.hpp) and
// defined in ebv_ibd, which links ebv_core. Only batch callers pay for it.
#include "core/node.hpp"
#include "ibd/pipeline.hpp"
#include "util/assert.hpp"
#include "util/stopwatch.hpp"

namespace ebv::core {

ibd::BatchResult EbvNode::submit_blocks(std::span<const EbvBlock> blocks) {
    const ibd::PipelineOptions options = ibd::PipelineOptions::from_env(options_.pipeline);

    if (!options.enabled) {
        // Serial fallback: the reference block-at-a-time loop.
        ibd::BatchResult result;
        util::Stopwatch watch;
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            auto r = submit_block(blocks[i]);
            if (!r) {
                result.failure =
                    ibd::PipelineFailure{i, next_height(), r.error()};
                break;
            }
            result.timings += *r;
            ++result.connected;
        }
        result.wall_ns = static_cast<std::uint64_t>(watch.elapsed_ns());
        return result;
    }

    ibd::Pipeline pipeline(options_.params, headers_, status_, options, options_.validator);
    return pipeline.run(blocks, [&](const EbvBlock& block, std::uint32_t height) {
        (void)height;
        output_counts_.push_back(static_cast<std::uint32_t>(block.output_count()));
        if (block_store_) block_store_->append(block);
    });
}

}  // namespace ebv::core

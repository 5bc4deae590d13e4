#include "core/node.hpp"

#include <cstdio>

#include "core/proof_kernel.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace ebv::core {

EbvNode::EbvNode(const EbvNodeOptions& options) : options_(options) {
    if (!options.data_dir.empty()) {
        block_store_ = std::make_unique<storage::FlatStore<EbvBlock>>(options.data_dir +
                                                                      "/ebv_blocks.dat");
    }
}

namespace {

/// Per-stage histograms of the block-at-a-time path; values survive
/// Registry::reset().
struct BlockStageMetrics {
    obs::Gauge& sha256_impl;
    obs::Histogram& ev_ns;
    obs::Histogram& uv_ns;
    obs::Histogram& sv_ns;
    obs::Histogram& update_ns;
    obs::Histogram& other_ns;
    obs::Histogram& total_ns;

    static BlockStageMetrics& get() {
        static BlockStageMetrics m{
            obs::Registry::global().gauge("ebv.crypto.sha256_impl"),
            obs::Registry::global().histogram("ebv.block.ev_ns"),
            obs::Registry::global().histogram("ebv.block.uv_ns"),
            obs::Registry::global().histogram("ebv.block.sv_ns"),
            obs::Registry::global().histogram("ebv.block.update_ns"),
            obs::Registry::global().histogram("ebv.block.other_ns"),
            obs::Registry::global().histogram("ebv.block.total_ns"),
        };
        return m;
    }
};

}  // namespace

util::Result<EbvTimings, EbvValidationFailure> EbvNode::submit_block(
    const EbvBlock& block) {
    const std::uint32_t height = next_height();
    // The block's causal span: worker-side per-input spans and the per-stage
    // aggregates below nest under it (workers inherit this context through
    // the ThreadPool hooks), and it nests under whatever the caller has open.
    obs::ScopedSpan block_span("ebv.block", "block");
    block_span.set_value(height);
    BlockStageMetrics& m = BlockStageMetrics::get();
    m.sha256_impl.set(crypto::sha256_impl_index());

    EbvTimings t;
    t.inputs = block.input_count();
    t.outputs = block.output_count();
    util::Stopwatch structure_watch;
    std::optional<EbvValidationFailure> failure =
        check_block_structure(block, options_.params);
    t.other.wall_ns += structure_watch.elapsed_ns();
    if (!failure) {
        ProofKernel kernel({&block, 1}, height, options_.params, options_.validator);
        const ProofKernel::PassTimes pass =
            kernel.run([&](std::uint32_t h) { return headers_.at(h); });
        t.ev.wall_ns += pass.ev;
        t.sv.wall_ns += pass.sv;
        failure = kernel.resolve(0, status_, nullptr, t);
    }
    if (failure) {
        publish_block_rejected();
        return util::Unexpected{*failure};
    }

    // Block storage: update the bit-vector set (§IV-E1).
    util::Stopwatch update_watch;
    status_.insert_block(height, static_cast<std::uint32_t>(block.output_count()));
    for (std::size_t i = 1; i < block.txs.size(); ++i) {
        for (const EbvInput& in : block.txs[i].inputs) {
            const auto spent = status_.spend(in.height, in.absolute_position());
            EBV_ASSERT(spent.has_value());  // resolve()'s UV check guarantees this
        }
    }
    t.update.wall_ns += update_watch.elapsed_ns();

    const bool linked = headers_.append(block.header);
    EBV_ENSURES(linked);
    output_counts_.push_back(static_cast<std::uint32_t>(block.output_count()));
    if (block_store_) block_store_->append(block);

    publish_block_connected(block);
    m.ev_ns.observe(t.ev.total_ns());
    m.uv_ns.observe(t.uv.total_ns());
    m.sv_ns.observe(t.sv.total_ns());
    m.update_ns.observe(t.update.total_ns());
    m.other_ns.observe(t.other.total_ns());
    m.total_ns.observe(t.total().total_ns());
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
        tracer.record("ebv.block.ev", t.ev);
        tracer.record("ebv.block.uv", t.uv);
        tracer.record("ebv.block.sv", t.sv);
        tracer.record("ebv.block.update", t.update);
        tracer.record("ebv.block.total", t.total());
    }
    return t;
}

void EbvNode::save_snapshot(const std::string& path) const {
    util::Writer w;
    w.u32(static_cast<std::uint32_t>(headers_.size()));
    for (std::uint32_t h = 0; h < headers_.size(); ++h) {
        headers_.at(h)->serialize(w);
        w.u32(output_counts_[h]);
    }
    status_.serialize(w);

    std::FILE* f = std::fopen(path.c_str(), "wb");
    EBV_ENSURES(f != nullptr);
    EBV_ASSERT(std::fwrite(w.data().data(), 1, w.size(), f) == w.size());
    std::fclose(f);
}

util::Result<std::unique_ptr<EbvNode>, util::DecodeError> EbvNode::load_snapshot(
    const std::string& path, const EbvNodeOptions& options) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return util::Unexpected{util::DecodeError::kTruncated};
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    util::Bytes data(static_cast<std::size_t>(size));
    const bool read_ok = std::fread(data.data(), 1, data.size(), f) == data.size();
    std::fclose(f);
    if (!read_ok) return util::Unexpected{util::DecodeError::kTruncated};

    util::Reader r(data);
    auto count = r.u32();
    if (!count) return util::Unexpected{count.error()};

    auto node = std::make_unique<EbvNode>(options);
    for (std::uint32_t h = 0; h < *count; ++h) {
        auto header = chain::BlockHeader::deserialize(r);
        if (!header) return util::Unexpected{header.error()};
        auto outputs = r.u32();
        if (!outputs) return util::Unexpected{outputs.error()};
        if (!node->headers_.append(*header))
            return util::Unexpected{util::DecodeError::kMalformed};
        node->output_counts_.push_back(*outputs);
    }

    auto status = BitVectorSet::deserialize(r);
    if (!status) return util::Unexpected{status.error()};
    node->status_ = std::move(*status);
    return node;
}

bool EbvNode::disconnect_tip(const EbvBlock& block) {
    if (headers_.empty()) return false;
    const std::uint32_t tip_height = headers_.height();
    if (block.header.hash() != headers_.tip_hash()) return false;

    // Un-spend every input (skip the coinbase at index 0).
    for (std::size_t t = 1; t < block.txs.size(); ++t) {
        for (const EbvInput& in : block.txs[t].inputs) {
            const bool restored = status_.unspend(in.height, in.absolute_position(),
                                                  output_counts_[in.height]);
            EBV_ASSERT(restored);
        }
    }
    status_.remove_block(tip_height);

    headers_.pop_tip();
    output_counts_.pop_back();
    if (block_store_) block_store_->truncate(tip_height);
    return true;
}

}  // namespace ebv::core

// The traced run's layer replay. It drives the same inputs once, on one
// thread, through the public layer functions the validator is built from
// (check_block_structure, ev_check_input, BitVectorSet::check_unspent,
// script::verify_script with a timing SignatureChecker), one span per
// call, and checks the sum against a 1-thread submit_block pass over the
// same blocks.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/ebv_transaction.hpp"
#include "core/sig_cache.hpp"
#include "inputs.hpp"
#include "util/thread_pool.hpp"

namespace ebv::perf {

struct Acc {
    double ns = 0;
    std::uint64_t n = 0;

    void add(std::int64_t d) {
        ns += static_cast<double>(d);
        ++n;
    }
    [[nodiscard]] double mean_ns() const { return n ? ns / static_cast<double>(n) : 0.0; }
};

struct LayerTotals {
    Acc structure;  ///< check_block_structure, per block
    Acc ev;         ///< ev_check_input, per input
    Acc uv;         ///< BitVectorSet::check_unspent, per input
    Acc sv;         ///< verify_script minus the standalone calls, per input
    Acc templ;      ///< TxSighashCache construction, per multi-input tx
    Acc commit;     ///< EbvTimings::update of the 1-thread pass, per block
    Acc sighash;    ///< standalone digest, per signature check
    Acc der;        ///< standalone Signature::from_der, per signature check
    Acc pubkey;     ///< standalone PublicKey::parse, per signature check
    Acc verify;     ///< standalone PublicKey::verify, per sigcache miss
    Acc probe;      ///< standalone SigCache::contains, per probe
    Acc vm;         ///< verify_script minus every signature check, per input
    std::uint64_t inputs = 0;

    /// The layers a block's connect passes through, summed.
    [[nodiscard]] double budget_ns() const {
        return structure.ns + ev.ns + uv.ns + sv.ns + templ.ns + commit.ns;
    }
};

/// Admission's SV for every input of `txs` (no chain state needed),
/// probing and warming `sigcache` the way EbvSignatureChecker does; then
/// each signature is probed once more, as the connect of a block built from
/// the admitted transactions would, and every such probe must hit.
bool replay_admission(const std::vector<core::EbvTransaction>& txs, core::SigCache& sigcache,
                      LayerTotals& totals);

struct Budget {
    LayerTotals layers;
    double one_thread_ns = 0;  ///< 1-thread submit_block pass over the blocks
    double parallel_ns = 0;    ///< the same blocks on the pool
    std::size_t blocks = 0;
    std::size_t inputs = 0;

    [[nodiscard]] double gap_pct() const {
        return one_thread_ns > 0 ? 100.0 * (layers.budget_ns() - one_thread_ns) / one_thread_ns
                                 : 0.0;
    }
};

/// Replay blocks[begin, end) layer by layer on a dedicated thread, each
/// block against the state a 1-thread node holds just before connecting it,
/// then connect it on that node (timed). Afterwards connect the same blocks
/// on `pool`, through submit_blocks with the pipeline on when `pipelined`,
/// else block by block, for the parallel wall time.
Budget run_budget(const Chain& chain, std::size_t begin, std::size_t end,
                  util::ThreadPool& pool, bool pipelined, Outcome& out);

/// Per-layer metrics of the SV split and (when `blocks`) EV/UV/structure/
/// commit. Layers the replay did not run read 0.
void add_layer_metrics(const LayerTotals& t, Outcome& out);

}  // namespace ebv::perf

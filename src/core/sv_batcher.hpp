// Per-worker deferred Script Validation: each thread-pool slot runs its SV
// jobs with a collect-mode checker (script::DeferringSignatureChecker),
// accumulates the recorded (pubkey, sig, sighash) triples, and drains them
// through crypto::verify_batch once enough are pending — amortizing the
// per-signature modular inversions across the batch (docs/CRYPTO.md).
//
// Determinism contract: an input resolves kOk through the batch only when
// its optimistic script run succeeded AND every one of its triples
// batch-verified — in which case an inline run would have made the exact
// same opcode decisions and also succeeded. Any other outcome (optimistic
// failure with deferred triples, or a batch miss) re-runs the input inline
// via sv_check_input, so the resolved ScriptError is always the inline one
// and failure tuples are bit-identical to a serial, unbatched validator.
#pragma once

#include <cstddef>
#include <vector>

#include "core/ebv_transaction.hpp"
#include "core/sighash_cache.hpp"
#include "script/interpreter.hpp"
#include "util/thread_pool.hpp"

namespace ebv::core {

class SigCache;

class SvBatcher {
public:
    /// Verdict callback: resolve(tag, err) fires exactly once per check()
    /// call, on the thread that runs the slot's check() or flush(). `tag` is
    /// the caller-chosen job identifier passed to check(). The referenced
    /// callable must outlive the batcher's last check()/flush().
    using Resolve = util::FunctionRef<void(std::size_t, script::ScriptError)>;

    /// Triples pending per slot before a drain; small enough to stay
    /// cache-resident, large enough that the amortized inversion cost
    /// (1 + 3(N-1) mults instead of N Fermat inversions) is near its floor.
    static constexpr std::size_t kBatchTarget = 16;

    /// `sigcache` (optional) filters admission-verified signatures out of
    /// the deferred batches: a triple the cache holds verified TRUE before,
    /// so it is dropped rather than queued, and an input whose every triple
    /// hits resolves immediately. Verified batch triples are inserted back,
    /// warming the cache for the next block (docs/MEMPOOL.md).
    SvBatcher(std::size_t slots, Resolve resolve, SigCache* sigcache = nullptr);

    /// Deferred SV for one input: runs the script optimistically on `slot`,
    /// resolving immediately when no signature was deferred (the run is
    /// then identical to an inline one) and queueing otherwise. `tx` (and
    /// `cache`, when given — it feeds the checker's sighash template) must
    /// outlive the resolving flush.
    void check(std::size_t slot, std::size_t tag, const EbvTransaction& tx,
               std::size_t input_index, const TxSighashCache* cache = nullptr);

    /// Drain slot `slot_index`'s pending batch. Call after the parallel
    /// barrier, once per slot; distinct slots may drain concurrently, but
    /// check() must not run at the same time.
    void flush(std::size_t slot_index);

private:
    struct Pending {
        std::size_t tag;
        const EbvTransaction* tx;
        std::size_t input_index;
        const TxSighashCache* cache;
        std::size_t triple_begin;  ///< into Slot::triples
        std::size_t triple_end;
    };
    // Slots are touched by one thread at a time (util::ThreadPool slot
    // semantics); alignment keeps neighbouring slots off one cache line.
    struct alignas(64) Slot {
        std::vector<Pending> pending;
        std::vector<crypto::VerifyJob> triples;
    };

    Resolve resolve_;
    SigCache* sigcache_;
    std::vector<Slot> slots_;
};

}  // namespace ebv::core

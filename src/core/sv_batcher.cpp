#include "core/sv_batcher.hpp"

#include <memory>

#include "core/ebv_validator.hpp"
#include "core/sig_cache.hpp"
#include "obs/metrics.hpp"

namespace ebv::core {

namespace {

/// Registry handles, resolved once (values survive Registry::reset()).
struct CryptoMetrics {
    obs::Histogram& batch_size;
    obs::Counter& inversions_saved;
    obs::Counter& batch_fallbacks;

    static CryptoMetrics& get() {
        static CryptoMetrics m{
            obs::Registry::global().histogram(
                "ebv.crypto.batch_size", obs::Histogram::exponential_bounds(1, 2.0, 8)),
            obs::Registry::global().counter("ebv.crypto.inversions_saved"),
            obs::Registry::global().counter("ebv.crypto.batch_fallbacks"),
        };
        return m;
    }
};

}  // namespace

SvBatcher::SvBatcher(std::size_t slots, Resolve resolve, SigCache* sigcache)
    : resolve_(resolve), sigcache_(sigcache), slots_(slots == 0 ? 1 : slots) {}

void SvBatcher::check(std::size_t slot_index, std::size_t tag, const EbvTransaction& tx,
                      std::size_t input_index, const TxSighashCache* cache) {
    Slot& slot = slots_[slot_index];
    const EbvInput& in = tx.inputs[input_index];

    const EbvSignatureChecker inner(tx, input_index, cache, sigcache_);
    const script::DeferringSignatureChecker deferring(inner);
    const script::ScriptError err = script::verify_script(
        in.unlock_script, in.els.outputs[in.out_index].lock_script, deferring);
    std::vector<crypto::VerifyJob>& collected = deferring.collected();

    if (collected.empty()) {
        // No signature was deferred, so the run was identical to inline.
        resolve_(tag, err);
        return;
    }
    if (err != script::ScriptError::kOk) {
        // The script failed even with optimistic signature results; the
        // inline error may differ (an optimistic `true` can steer
        // conditionals), so re-run for the authoritative verdict.
        CryptoMetrics::get().batch_fallbacks.inc();
        resolve_(tag, sv_check_input(tx, input_index, cache, sigcache_));
        return;
    }

    if (sigcache_ != nullptr) {
        // Drop triples the sigcache already verified TRUE at admission: a
        // hit is a sound accept, so only the misses need curve work. When
        // everything hits, the optimistic run's success is authoritative —
        // an inline run would make the same opcode decisions.
        std::size_t kept = 0;
        for (crypto::VerifyJob& job : collected) {
            if (sigcache_->contains(job)) continue;
            if (&collected[kept] != &job) collected[kept] = std::move(job);
            ++kept;
        }
        collected.resize(kept);
        if (collected.empty()) {
            resolve_(tag, script::ScriptError::kOk);
            return;
        }
    }

    const std::size_t begin = slot.triples.size();
    slot.triples.insert(slot.triples.end(),
                        std::make_move_iterator(collected.begin()),
                        std::make_move_iterator(collected.end()));
    slot.pending.push_back(Pending{tag, &tx, input_index, cache, begin, slot.triples.size()});
    if (slot.triples.size() >= kBatchTarget) flush(slot_index);
}

void SvBatcher::flush(std::size_t slot_index) {
    Slot& slot = slots_[slot_index];
    if (slot.pending.empty()) return;
    CryptoMetrics& m = CryptoMetrics::get();

    const std::unique_ptr<bool[]> verdicts(new bool[slot.triples.size()]);
    const crypto::BatchVerifyStats batch_stats =
        crypto::verify_batch({slot.triples.data(), slot.triples.size()}, verdicts.get());
    if (sigcache_ != nullptr) {
        // Every triple that batch-verified TRUE is individually genuine
        // (batch verdicts are bit-identical to PublicKey::verify), so it is
        // safe to warm the cache with it even when a sibling triple fails.
        for (std::size_t j = 0; j < slot.triples.size(); ++j)
            if (verdicts[j]) sigcache_->insert(slot.triples[j]);
    }
    m.batch_size.observe(static_cast<std::uint64_t>(slot.triples.size()));
    m.inversions_saved.inc(batch_stats.inversions_saved);

    for (const Pending& p : slot.pending) {
        bool all_valid = true;
        for (std::size_t j = p.triple_begin; j < p.triple_end; ++j)
            all_valid &= verdicts[j];
        if (all_valid) {
            // Optimistic run succeeded and every deferred signature is
            // genuine: an inline run takes the same path and succeeds.
            resolve_(p.tag, script::ScriptError::kOk);
        } else {
            m.batch_fallbacks.inc();
            resolve_(p.tag, sv_check_input(*p.tx, p.input_index, p.cache, sigcache_));
        }
    }
    slot.pending.clear();
    slot.triples.clear();
}

}  // namespace ebv::core

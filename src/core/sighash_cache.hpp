// Per-transaction sighash cache for EBV Script Validation.
//
// Wraps a chain::SighashTemplate built over the EBV transaction's legacy
// projection (prevouts + sequences + outputs — the bytes signatures commit
// to) and eagerly precomputes the *standard* digest of every input: script
// code = the locking script inside ELs, hash type = SIGHASH_ALL. Those are
// the digests the fused EV+SV pass will ask for on P2PKH spends, and
// because the pass has all of a transaction's inputs grouped, they are
// hashed through one crypto::sha256d_many call — SIMD lanes across inputs
// on top of the template's O(tx_size + n·script_size) serialization bound.
// Non-standard requests (P2SH redeem scripts, exotic hash types) fall back
// to the template's midstate patch-and-hash path.
//
// Thread-safety: immutable after construction except the bytes-saved
// counter; digest() may be called concurrently from pool workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "chain/sighash_template.hpp"
#include "core/ebv_transaction.hpp"

namespace ebv::core {

/// Minimum input count before the validators build a TxSighashCache. A
/// single-input transaction has nothing to amortize — the template build
/// plus the eager one-lane batch costs slightly more than one naive
/// serialize-and-hash — so those transactions keep the naive path and the
/// template engages only where it wins (see bench/micro_crypto BM_Sighash_*).
inline constexpr std::size_t kSighashCacheMinInputs = 2;

/// The template policy of every SV path (block kernel and mempool
/// admission): whether a TxSighashCache for `tx` pays for its build.
[[nodiscard]] inline bool sighash_template_pays(const EbvTransaction& tx) {
    return tx.inputs.size() >= kSighashCacheMinInputs;
}

class TxSighashCache {
public:
    explicit TxSighashCache(const EbvTransaction& tx);

    TxSighashCache(const TxSighashCache&) = delete;
    TxSighashCache& operator=(const TxSighashCache&) = delete;

    /// Sighash for (input_index, script_code, hash_type); bit-identical to
    /// ebv_signature_hash on the same arguments.
    [[nodiscard]] crypto::Hash256 digest(std::size_t input_index,
                                         util::ByteSpan script_code,
                                         std::uint8_t hash_type) const;

    /// Serialization + hashing bytes avoided relative to the naive
    /// re-serializing path, accumulated across digest() calls (feeds the
    /// ebv.crypto.sighash_bytes_saved metric).
    [[nodiscard]] std::uint64_t bytes_saved() const {
        return bytes_saved_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] const chain::SighashTemplate& tpl() const { return tpl_; }

private:
    const EbvTransaction& tx_;
    chain::SighashTemplate tpl_;
    std::vector<crypto::Hash256> standard_;     ///< SIGHASH_ALL over the ELs lock script
    std::vector<std::uint8_t> has_standard_;    ///< 0 = compute via template
    mutable std::atomic<std::uint64_t> bytes_saved_{0};
};

}  // namespace ebv::core

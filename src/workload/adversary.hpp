// Hostile-chain mutation layer over converted EBV chains, plus a few
// Bitcoin-format builders (docs/SCENARIOS.md). Every mutation models one of
// two attackers:
//
//   relay adversary — block bytes tampered in flight: a proof field (MBr,
//   ELs, height, position) or an unlocking script no longer matches what
//   the miner committed to, so EV or SV must fail;
//
//   miner adversary — a well-formed block (stake positions reassigned,
//   Merkle root honestly recomputed) that violates a consensus rule:
//   double spends, immature coinbase spends, value inflation, coinbase
//   overpayment, broken block structure.
//
// The scenario-matrix harness applies each mutation and asserts that all
// validator configurations (serial / parallel / pipelined-IBD / warm sigcache)
// reject with bit-identical failure tuples.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chain/block.hpp"
#include "core/chain_archive.hpp"
#include "core/ebv_transaction.hpp"
#include "util/rng.hpp"

namespace ebv::workload {

enum class Mutation {
    // Relay adversary: tampered proof fields → EV failure.
    kMbrSibling,        ///< flip a bit in a Merkle-branch sibling hash
    kMbrIndex,          ///< shift the Merkle-branch leaf index
    kElsValue,          ///< raise the referenced output's claimed value
    kElsLockScript,     ///< tamper the referenced output's lock script
    kElsLocktime,       ///< tamper the ELs locktime field
    kElsVersion,        ///< tamper the ELs version field
    kElsStakePosition,  ///< fake the ELs stake position (forged UV position)
    kInputHeight,       ///< point the input at a non-existent height
    kInputOutIndex,     ///< point out_index past the ELs output list
    // Relay adversary: tampered unlocking script → SV failure.
    kUnlockScript,
    // Miner adversary: structural violations.
    kShiftedStakePosition,  ///< stake positions off the running count
    kStaleMerkleRoot,       ///< body changed, root left stale
    kDropCoinbase,          ///< first transaction is not a coinbase
    kInjectCoinbase,        ///< a second coinbase mid-block
    kEmptyTxList,           ///< no transactions at all
    // Miner adversary: state/value violations (root recomputed).
    kDoubleSpendInBlock,         ///< the same input twice in one transaction
    kCrossBlockDoubleSpendNear,  ///< re-spend an input a nearby block spent
    kCrossBlockDoubleSpendFar,   ///< re-spend across many blocks (and, under
                                 ///< pipelined IBD, across window boundaries)
    kImmatureCoinbaseSpend,      ///< spend the previous block's coinbase
    kNegativeFee,                ///< output sum above input sum
    kCoinbaseOverpay,            ///< coinbase above subsidy + fees
};

inline constexpr Mutation kAllMutations[] = {
    Mutation::kMbrSibling,         Mutation::kMbrIndex,
    Mutation::kElsValue,           Mutation::kElsLockScript,
    Mutation::kElsLocktime,        Mutation::kElsVersion,
    Mutation::kElsStakePosition,   Mutation::kInputHeight,
    Mutation::kInputOutIndex,      Mutation::kUnlockScript,
    Mutation::kShiftedStakePosition, Mutation::kStaleMerkleRoot,
    Mutation::kDropCoinbase,       Mutation::kInjectCoinbase,
    Mutation::kEmptyTxList,        Mutation::kDoubleSpendInBlock,
    Mutation::kCrossBlockDoubleSpendNear, Mutation::kCrossBlockDoubleSpendFar,
    Mutation::kImmatureCoinbaseSpend, Mutation::kNegativeFee,
    Mutation::kCoinbaseOverpay,
};

[[nodiscard]] const char* to_string(Mutation m);

/// Record of one applied mutation, for seed-logged soak replay.
struct AppliedMutation {
    Mutation mutation;
    std::size_t block = 0;  ///< index into the mutated vector
};

class Adversary {
public:
    explicit Adversary(std::uint64_t seed) : rng_(seed) {}

    /// Apply `m` to blocks[target] in place. `blocks` must be a chain
    /// starting at height 0 (block index == height); `archive` is the
    /// converter's proof archive over the same chain and is required only
    /// by kImmatureCoinbaseSpend (pass nullptr otherwise). Returns nullopt
    /// when the mutation does not apply to that block (e.g. no inputs) —
    /// the block is left untouched in that case.
    std::optional<AppliedMutation> apply(Mutation m, std::vector<core::EbvBlock>& blocks,
                                         std::size_t target,
                                         const core::ChainArchive* archive = nullptr);

    /// Apply a uniformly random applicable mutation to a random block with
    /// index in [first, blocks.size()). Draws until one applies (bounded).
    std::optional<AppliedMutation> apply_random(std::vector<core::EbvBlock>& blocks,
                                               std::size_t first,
                                               const core::ChainArchive* archive = nullptr);

    [[nodiscard]] util::Rng& rng() { return rng_; }

private:
    util::Rng rng_;
};

/// A Bitcoin-format block whose single transaction is a byte-identical copy
/// of `victim`'s coinbase — the BIP30 fixture: without a connect-time
/// duplicate-txid rule the re-created txid silently overwrites the earlier
/// (still unspent) coins in the UTXO set.
[[nodiscard]] chain::Block duplicate_txid_block(const chain::Block& victim,
                                                const crypto::Hash256& parent,
                                                std::uint32_t time);

/// The EBV counterpart: a block whose coinbase is a byte-identical copy of
/// `victim`'s. EBV state is keyed by (height, position), not txid, so this
/// block is *accepted* and clobbers nothing — the pin test documents that.
[[nodiscard]] core::EbvBlock duplicate_txid_ebv_block(const core::EbvBlock& victim,
                                                      const crypto::Hash256& parent);

}  // namespace ebv::workload

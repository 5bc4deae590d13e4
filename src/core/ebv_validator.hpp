// The EBV block-validation pipeline (paper §IV-D): per input,
//   EV — fold the Merkle branch from the ELs leaf and compare against the
//        stored header's root at the claimed height;
//   UV — test the bit at the input's absolute position in the bit-vector
//        set (absolute = authenticated stake position + relative index);
//   SV — run Us against the locking script inside ELs.
// No step touches the disk: headers and bit-vectors are memory-resident and
// the proof data arrives with the transaction. Block storage then updates
// the bit-vector set (§IV-E). core::ProofKernel (core/proof_kernel.hpp) runs
// these checks for a block or a window of blocks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "chain/params.hpp"
#include "core/ebv_transaction.hpp"
#include "core/sighash_cache.hpp"
#include "crypto/ecdsa.hpp"
#include "script/interpreter.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ebv::core {

class SigCache;

enum class EbvError {
    kEmptyBlock,
    kFirstTxNotCoinbase,
    kUnexpectedCoinbase,
    kMissingInputs,
    kMerkleRootMismatch,
    kBadStakePosition,   ///< miner-assigned stake positions inconsistent
    kTooManyOutputs,
    kUnknownHeight,      ///< EV: input references a height beyond the chain
    kExistenceFailed,    ///< EV: Merkle branch does not reach the stored root
    kBadOutIndex,        ///< claimed output index not present in ELs
    kUnspentFailed,      ///< UV: bit already 0 (or vector gone)
    kDoubleSpendInBlock,
    kImmatureCoinbaseSpend,
    kValueOutOfRange,
    kNegativeFee,
    kCoinbaseValueTooHigh,
    kScriptFailure,      ///< SV failed
};

[[nodiscard]] const char* to_string(EbvError e);

struct EbvValidationFailure {
    EbvError error;
    std::size_t tx_index = 0;
    std::size_t input_index = 0;
    script::ScriptError script_error = script::ScriptError::kOk;

    [[nodiscard]] std::string describe() const;

    friend bool operator==(const EbvValidationFailure&,
                           const EbvValidationFailure&) = default;
};

// ---- Shared per-input / per-block checks -----------------------------------
// The proof-check kernel (core/proof_kernel.hpp), which both block-connect
// paths run, and mempool admission (core/tx_pool.hpp) build on exactly these
// checks.

/// Per-input Existence Validation verdict, recorded out of order by the
/// parallel pass and resolved in input order afterwards.
enum class EvStatus : std::uint8_t { kOk, kUnknownHeight, kBadOutIndex, kExistenceFailed };

/// Map a non-kOk EV verdict to the error a serial pipeline reports.
[[nodiscard]] EbvError to_ebv_error(EvStatus status);

/// EV for one input: the spent output must live in a block strictly below
/// `spending_height` whose stored Merkle root the carried branch folds to.
/// `header` is the caller-resolved header at `in.height` (nullptr = none —
/// callers validating against pending, not-yet-committed blocks resolve
/// in-window heights from their own lookahead state).
[[nodiscard]] EvStatus ev_check_input(const EbvInput& in, const chain::BlockHeader* header,
                                      std::uint32_t spending_height);

/// SV for one input. The caller guarantees the input passed EV (so
/// out_index is in range). `cache` optionally shares the transaction's
/// sighash template across inputs (nullptr = naive per-call serialization);
/// `sigcache` optionally short-circuits signatures already verified at
/// mempool admission (docs/MEMPOOL.md).
[[nodiscard]] script::ScriptError sv_check_input(const EbvTransaction& tx,
                                                 std::size_t input_index,
                                                 const TxSighashCache* cache = nullptr,
                                                 SigCache* sigcache = nullptr);

/// The stateless structural pass: coinbase shape, stake-position
/// assignment, output-value ranges, and the block's own Merkle root.
/// Returns the failure EbvNode::submit_block would report, or nullopt.
[[nodiscard]] std::optional<EbvValidationFailure> check_block_structure(
    const EbvBlock& block, const chain::ChainParams& params);

/// Per-block timing breakdown, the unit of Figs 15/16b/17b. `update` is the
/// bit-vector maintenance of block storage; figures fold it into "others".
struct EbvTimings {
    util::TimeCost ev;
    util::TimeCost uv;
    util::TimeCost sv;
    util::TimeCost update;
    util::TimeCost other;
    std::size_t inputs = 0;
    std::size_t outputs = 0;

    [[nodiscard]] util::TimeCost total() const { return ev + uv + sv + update + other; }
    [[nodiscard]] util::TimeCost others_combined() const { return update + other; }

    EbvTimings& operator+=(const EbvTimings& o) {
        ev += o.ev;
        uv += o.uv;
        sv += o.sv;
        update += o.update;
        other += o.other;
        inputs += o.inputs;
        outputs += o.outputs;
        return *this;
    }
};

struct EbvValidatorOptions {
    bool verify_scripts = true;
    util::ThreadPool* script_pool = nullptr;
    /// O(n) per-transaction sighash templates for SV (docs/CRYPTO.md).
    bool sighash_template = true;
    /// Shared signature-verification cache: signatures the mempool already
    /// verified at admission short-circuit SV here (docs/MEMPOOL.md).
    /// nullptr = every signature pays the full curve check.
    SigCache* sigcache = nullptr;
};

/// Always false: kept only until the benchmark's provenance line drops the field.
[[nodiscard]] inline bool batch_verify_enabled(const EbvValidatorOptions&) { return false; }
[[nodiscard]] inline bool sighash_template_enabled(const EbvValidatorOptions& options) {
    return options.sighash_template;
}

/// SignatureChecker binding the script VM to EBV's signature-hash rules.
class EbvSignatureChecker final : public script::SignatureChecker {
public:
    EbvSignatureChecker(const EbvTransaction& tx, std::size_t input_index,
                        const TxSighashCache* cache = nullptr,
                        SigCache* sigcache = nullptr)
        : tx_(tx), input_index_(input_index), cache_(cache), sigcache_(sigcache) {}

    [[nodiscard]] bool check_signature(util::ByteSpan signature, util::ByteSpan pubkey,
                                       util::ByteSpan script_code) const override;

private:
    /// The parse-time rejects of check_signature (SIGHASH_ALL only, strict
    /// DER, compressed-key parse) and the sighash; nullopt = reject.
    [[nodiscard]] std::optional<crypto::VerifyJob> parse_job(
        util::ByteSpan signature, util::ByteSpan pubkey, util::ByteSpan script_code) const;

    const EbvTransaction& tx_;
    std::size_t input_index_;
    const TxSighashCache* cache_;
    SigCache* sigcache_;
};

}  // namespace ebv::core

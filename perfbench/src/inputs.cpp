#include "inputs.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/chain_archive.hpp"
#include "crypto/ecdsa.hpp"
#include "intermediary/converter.hpp"
#include "script/standard.hpp"
#include "util/rng.hpp"
#include "workload/era.hpp"
#include "workload/generator.hpp"

namespace ebv::perf {

Chain era_chain(std::uint64_t seed, std::uint32_t count, double intensity,
                std::size_t min_inputs) {
    workload::GeneratorOptions options;
    options.seed = seed;
    options.signed_mode = true;
    options.height_scale = 650'000.0 / count;
    options.intensity = intensity;
    // More keys than the program's 64-slot parse memo has slots, as on a
    // real chain, so memo hits do not hinge on how the seed's keys collide.
    options.key_pool_size = 256;

    Chain out;
    out.params = options.params;
    out.blocks.reserve(count);
    workload::ChainGenerator generator(options);
    intermediary::Converter converter;
    std::size_t inputs = 0;
    bool last = false;  // with min_inputs: the block after the target is reached
    for (std::uint32_t i = 0; min_inputs > 0 ? !last : i < count; ++i) {
        last = min_inputs > 0 && inputs >= min_inputs;
        auto converted = converter.convert_block(generator.next_block());
        if (!converted)
            throw std::runtime_error(std::string("conversion failed: ") +
                                     intermediary::to_string(converted.error()));
        inputs += converted->input_count();
        out.blocks.push_back(std::move(*converted));
    }
    return out;
}

std::size_t input_count(const std::vector<core::EbvBlock>& blocks, std::size_t begin,
                        std::size_t end) {
    std::size_t n = 0;
    for (std::size_t b = begin; b < end; ++b) n += blocks[b].input_count();
    return n;
}

namespace {

/// Sign every input of `txs` (P2PKH, SIGHASH_ALL) on the pool: RFC 6979
/// signatures are deterministic, so the result does not depend on how the
/// work is split. signers[t][i] is the key of input i of *txs[t].
void sign_p2pkh(const std::vector<core::EbvTransaction*>& txs,
                const std::vector<std::vector<std::size_t>>& signers,
                const std::vector<crypto::PrivateKey>& keys,
                const std::vector<crypto::PublicKey>& pubkeys,
                const std::vector<script::Script>& locks, util::ThreadPool& pool) {
    pool.parallel_for(txs.size(), [&](std::size_t t) {
        core::EbvTransaction& tx = *txs[t];
        for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
            const std::size_t key = signers[t][i];
            const crypto::Hash256 digest = core::ebv_signature_hash(tx, i, locks[key], 0x01);
            util::Bytes sig = keys[key].sign(digest).to_der();
            sig.push_back(0x01);
            tx.inputs[i].unlock_script = script::make_p2pkh_unlock(sig, pubkeys[key]);
        }
    });
}

/// A block on top of `prev` (null for genesis) holding a coinbase that
/// pays `coinbase_outputs`, then `txs`; stake positions and the Merkle root
/// sealed.
core::EbvBlock seal_block(const core::EbvBlock* prev, std::uint32_t height,
                          std::vector<chain::TxOut> coinbase_outputs,
                          std::vector<core::EbvTransaction> txs) {
    core::EbvBlock block;
    core::EbvTransaction coinbase;
    coinbase.coinbase_data = {static_cast<std::uint8_t>(height),
                              static_cast<std::uint8_t>(height >> 8), 0x42};
    coinbase.outputs = std::move(coinbase_outputs);
    block.txs.push_back(std::move(coinbase));
    for (core::EbvTransaction& tx : txs) block.txs.push_back(std::move(tx));
    block.header.prev_hash = prev == nullptr ? crypto::Hash256{} : prev->header.hash();
    block.assign_stake_positions();
    return block;
}

}  // namespace

SpendInputs spend_inputs(std::uint64_t seed, const SpendShape& shape, util::ThreadPool& pool) {
    constexpr std::size_t kKeys = 256;  // more than the parse memo's 64 slots
    constexpr std::size_t kFanoutTxs = 64;     // per fan-out block: Merkle branches of depth 7
    constexpr std::size_t kFanoutOutputs = 8;  // per fan-out transaction
    constexpr std::size_t kCoinsPerBlock = kFanoutTxs * kFanoutOutputs;
    constexpr chain::Amount kFanoutFee = 10'000;

    util::Rng rng(seed);
    std::vector<crypto::PrivateKey> keys;
    std::vector<crypto::PublicKey> pubkeys;
    std::vector<script::Script> locks;
    for (std::size_t k = 0; k < kKeys; ++k) {
        keys.push_back(crypto::PrivateKey::generate(rng));
        pubkeys.push_back(keys.back().public_key());
        locks.push_back(script::make_p2pkh(pubkeys.back().id()));
    }

    SpendInputs out;
    out.params = chain::ChainParams::simnet();
    out.coinbase_lock = locks[0];

    // Funding chain: `fanouts` seed blocks whose coinbases pay kFanoutTxs
    // outputs each, coinbase_maturity empty blocks, then `fanouts` fan-out
    // blocks. Fan-out block j holds kFanoutTxs transactions, each spending
    // one output of seed block j's coinbase and paying kFanoutOutputs
    // outputs: the coins the rounds spend sit in many-transaction blocks,
    // so their existence proofs carry real Merkle branches.
    const std::size_t needed = shape.rounds * shape.round_inputs;
    const std::size_t fanouts = (needed + kCoinsPerBlock - 1) / kCoinsPerBlock;
    const std::size_t first_fanout = fanouts + out.params.coinbase_maturity;

    struct Coin {
        std::uint32_t height;
        std::uint32_t tx;
        std::uint16_t index;
        chain::Amount value;
        std::size_t key;
    };
    core::ChainArchive archive;
    const auto append = [&](core::EbvBlock block) {
        archive.add_block(block);
        out.funding.push_back(std::move(block));
    };
    for (std::uint32_t h = 0; h < first_fanout; ++h) {
        const chain::Amount subsidy = out.params.subsidy_at(h);
        const std::size_t outputs = h < fanouts ? kFanoutTxs : 1;
        std::vector<chain::TxOut> paid;
        for (std::size_t k = 0; k < outputs; ++k)
            paid.push_back(chain::TxOut{
                subsidy / static_cast<chain::Amount>(outputs) +
                    (k == 0 ? subsidy % static_cast<chain::Amount>(outputs) : 0),
                locks[(h * kFanoutTxs + k) % kKeys]});
        append(seal_block(out.funding.empty() ? nullptr : &out.funding.back(), h,
                          std::move(paid), {}));
    }
    std::vector<Coin> coins;
    for (std::size_t j = 0; j < fanouts; ++j) {
        const auto h = static_cast<std::uint32_t>(first_fanout + j);
        const core::EbvBlock& seed_block = out.funding[j];
        std::vector<core::EbvTransaction> txs(kFanoutTxs);
        std::vector<std::vector<std::size_t>> signers;
        for (std::size_t t = 0; t < kFanoutTxs; ++t) {
            const chain::TxOut& spent = seed_block.txs[0].outputs[t];
            core::EbvInput in = archive.make_input(static_cast<std::uint32_t>(j), 0,
                                                   static_cast<std::uint16_t>(t));
            // Legacy outpoints above 2^31, apart from the rounds' (see below).
            in.prevout.index = 0x8000'0000u | static_cast<std::uint32_t>(j * kFanoutTxs + t);
            txs[t].inputs.push_back(std::move(in));
            signers.push_back({(j * kFanoutTxs + t) % kKeys});
            const chain::Amount each =
                (spent.value - kFanoutFee) / static_cast<chain::Amount>(kFanoutOutputs);
            for (std::size_t o = 0; o < kFanoutOutputs; ++o) {
                const std::size_t key = rng.below(kKeys);
                txs[t].outputs.push_back(chain::TxOut{each, locks[key]});
                coins.push_back(Coin{h, static_cast<std::uint32_t>(t + 1),
                                     static_cast<std::uint16_t>(o), each, key});
            }
        }
        std::vector<core::EbvTransaction*> unsigned_txs;
        for (core::EbvTransaction& tx : txs) unsigned_txs.push_back(&tx);
        sign_p2pkh(unsigned_txs, signers, keys, pubkeys, locks, pool);
        // The fees (spent value minus what the outputs pay) go to the coinbase.
        chain::Amount fees = 0;
        for (std::size_t t = 0; t < kFanoutTxs; ++t)
            fees += seed_block.txs[0].outputs[t].value -
                    txs[t].outputs[0].value * static_cast<chain::Amount>(kFanoutOutputs);
        append(seal_block(&out.funding.back(), h,
                          {chain::TxOut{out.params.subsidy_at(h) + fees, locks[0]}},
                          std::move(txs)));
    }
    for (std::size_t i = coins.size(); i > 1; --i) std::swap(coins[i - 1], coins[rng.below(i)]);

    const workload::EraPoint era = workload::EraSchedule::bitcoin_mainnet().at(shape.era_height);
    std::vector<std::vector<std::size_t>> signers;  // per transaction, each input's key
    std::size_t next_coin = 0;
    std::uint32_t next_outpoint = 0;
    for (std::size_t r = 0; r < shape.rounds; ++r) {
        std::vector<core::EbvTransaction> round;
        chain::Amount round_fees = 0;
        for (std::size_t left = shape.round_inputs; left > 0;) {
            const std::size_t width = std::min<std::size_t>(
                left, rng.geometric_at_least_one(era.inputs_per_tx));
            left -= width;
            core::EbvTransaction tx;
            chain::Amount value_in = 0;
            std::vector<std::size_t> signer;
            for (std::size_t i = 0; i < width; ++i) {
                const Coin& coin = coins[next_coin++];
                core::EbvInput in = archive.make_input(coin.height, coin.tx, coin.index);
                // make_input leaves the legacy outpoint zeroed; a distinct
                // one per input keeps every sighash (and signature) unique,
                // so admission never hits the cache on its own entries.
                in.prevout.index = next_outpoint++;
                tx.inputs.push_back(std::move(in));
                value_in += coin.value;
                signer.push_back(coin.key);
            }
            const chain::Amount fee =
                static_cast<chain::Amount>(width) * 10'000 +
                static_cast<chain::Amount>(rng.below(64)) * 2'500;
            const std::size_t outputs = rng.geometric_at_least_one(era.outputs_per_tx);
            const chain::Amount each = (value_in - fee) / static_cast<chain::Amount>(outputs);
            for (std::size_t o = 0; o < outputs; ++o)
                tx.outputs.push_back(chain::TxOut{each, locks[rng.below(kKeys)]});
            round_fees += value_in - each * static_cast<chain::Amount>(outputs);
            out.inputs += width;
            round.push_back(std::move(tx));
            signers.push_back(std::move(signer));
        }
        out.txs += round.size();
        out.rounds.push_back(std::move(round));
        out.round_fees.push_back(round_fees);
    }

    std::vector<core::EbvTransaction*> unsigned_txs;
    for (auto& round : out.rounds)
        for (core::EbvTransaction& tx : round) unsigned_txs.push_back(&tx);
    sign_p2pkh(unsigned_txs, signers, keys, pubkeys, locks, pool);
    return out;
}

Chain spend_chain(SpendInputs inputs) {
    Chain out{inputs.params, std::move(inputs.funding)};
    for (std::size_t r = 0; r < inputs.rounds.size(); ++r) {
        const auto h = static_cast<std::uint32_t>(out.blocks.size());
        core::EbvBlock block = seal_block(
            &out.blocks.back(), h,
            {chain::TxOut{out.params.subsidy_at(h) + inputs.round_fees[r], inputs.coinbase_lock}},
            std::move(inputs.rounds[r]));
        out.blocks.push_back(std::move(block));
    }
    return out;
}

void expect_rejection(core::EbvNode& node, const core::EbvBlock& block,
                      const core::EbvValidationFailure& expected, const std::string& what,
                      Outcome& out) {
    const auto result = node.submit_block(block);
    if (result) {
        out.check(false, what + ": accepted, expected " + expected.describe());
        if (!node.disconnect_tip(block)) out.check(false, what + ": rollback failed");
        return;
    }
    out.check(result.error() == expected, what + ": rejected as " +
                                              result.error().describe() + ", expected " +
                                              expected.describe());
}

namespace {

/// Byte offset, inside `unlock`, of the last byte of the DER `s` value of
/// the first signature push; 0 when the script carries none.
std::size_t signature_s_byte(const script::Script& unlock) {
    script::ScriptParser parser(unlock);
    while (const auto op = parser.next()) {
        const util::Bytes& data = op->push_data;
        if (op->is_push() && data.size() >= 9 && data.front() == 0x30 && data.back() == 0x01)
            return parser.position() - 2;
    }
    return 0;
}

}  // namespace

void check_mutants(core::EbvNode& node, const core::EbvBlock& next, std::uint64_t seed,
                   Outcome& out) {
    const std::size_t txs = next.txs.size();
    if (txs < 2) {
        out.check(false, "mutants: the next block has no spending transaction");
        return;
    }

    // Flipped signature byte: the first input (from a seeded start) whose
    // unlocking script carries a signature.
    {
        core::EbvBlock bad = next;
        bool done = false;
        for (std::size_t k = 0; k < txs - 1 && !done; ++k) {
            const std::size_t t = 1 + (seed + k) % (txs - 1);
            for (std::size_t i = 0; i < bad.txs[t].inputs.size() && !done; ++i) {
                script::Script& unlock = bad.txs[t].inputs[i].unlock_script;
                const std::size_t at = signature_s_byte(unlock);
                if (at == 0) continue;
                unlock[at] ^= 0x01;
                bad.assign_stake_positions();
                expect_rejection(node, bad,
                                 core::EbvValidationFailure{core::EbvError::kScriptFailure, t,
                                                            i, script::ScriptError::kEvalFalse},
                                 "flipped signature byte", out);
                done = true;
            }
        }
        if (!done) out.check(false, "mutants: no signature to flip in the next block");
    }

    // Corrupted Merkle branch: flip a sibling of the first input (from a
    // seeded start) whose branch has one; a block whose sources all sit
    // alone in their blocks gets a spurious sibling appended instead.
    {
        core::EbvBlock bad = next;
        const std::size_t start = 1 + (seed / 7) % (txs - 1);
        std::size_t hit_t = 0, hit_i = 0;
        for (std::size_t k = 0; k < txs - 1 && hit_t == 0; ++k) {
            const std::size_t t = 1 + (start - 1 + k) % (txs - 1);
            for (std::size_t i = 0; i < bad.txs[t].inputs.size(); ++i) {
                if (!bad.txs[t].inputs[i].mbr.siblings.empty()) {
                    hit_t = t;
                    hit_i = i;
                    break;
                }
            }
        }
        if (hit_t != 0) {
            bad.txs[hit_t].inputs[hit_i].mbr.siblings[0].bytes()[0] ^= 0x01;
        } else {
            hit_t = start;
            hit_i = 0;
            core::EbvInput& in = bad.txs[hit_t].inputs[0];
            in.mbr.siblings.push_back(in.els.leaf_hash());
        }
        bad.assign_stake_positions();
        expect_rejection(node, bad,
                         core::EbvValidationFailure{core::EbvError::kExistenceFailed, hit_t,
                                                    hit_i},
                         "corrupted Merkle branch", out);
    }
}

}  // namespace ebv::perf

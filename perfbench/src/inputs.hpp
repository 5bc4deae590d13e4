// Input generation for the benchmark workloads, and the two mutated
// copies of a block every run submits. All inputs derive from the run's
// seed and are built before any timed region; the program under test only
// ever receives the finished blocks and transactions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "chain/params.hpp"
#include "core/ebv_transaction.hpp"
#include "core/ebv_validator.hpp"
#include "core/node.hpp"
#include "script/script.hpp"
#include "util/thread_pool.hpp"

namespace ebv::perf {

struct Chain {
    chain::ChainParams params;
    std::vector<core::EbvBlock> blocks;
};

/// Converted, signed EBV blocks of a chain shaped by the mainnet era
/// schedule (block i sits at real height i * 650000 / count; transactions
/// per block are the schedule's times `intensity`; outputs pay a pool of
/// 256 keys), with a real ECDSA signature on every input. The chain has
/// `count` blocks, or, when `min_inputs` is set, as many as it takes to
/// hold that many inputs plus one block past them, so that its size does
/// not vary with the seed.
Chain era_chain(std::uint64_t seed, std::uint32_t count, double intensity,
                std::size_t min_inputs = 0);

/// Non-coinbase inputs in blocks[begin, end).
std::size_t input_count(const std::vector<core::EbvBlock>& blocks, std::size_t begin,
                        std::size_t end);

/// A self-mined funding chain plus rounds of standalone signed P2PKH
/// transactions spending it. The coins spent sit in fan-out blocks of 65
/// transactions, so every existence proof carries a Merkle branch. Input
/// and output counts per transaction are drawn as the chain generator draws
/// them, from the mainnet era schedule at the tip height: most spends have
/// one or two inputs, a tail has many, so the sighash-template gate (>= 2
/// inputs) runs both ways. No two transactions share an input.
struct SpendInputs {
    chain::ChainParams params;
    script::Script coinbase_lock;
    std::vector<core::EbvBlock> funding;
    std::vector<std::vector<core::EbvTransaction>> rounds;
    std::vector<chain::Amount> round_fees;  ///< fees of each round's transactions
    std::size_t txs = 0;
    std::size_t inputs = 0;
};

/// Every round holds exactly `round_inputs` inputs (the last transaction
/// drawn is cut to fit), so the work per round does not vary with the seed.
struct SpendShape {
    std::size_t rounds = 8;
    std::size_t round_inputs = 300;
    std::uint32_t era_height = 650'000;  ///< where EraSchedule::bitcoin_mainnet() is read
};

/// Signs the transactions on `pool`.
SpendInputs spend_inputs(std::uint64_t seed, const SpendShape& shape, util::ThreadPool& pool);

/// The funding chain followed by one block per round: a coinbase paying
/// the subsidy and the round's fees, then the round's transactions.
Chain spend_chain(SpendInputs inputs);

/// Submit `block`, which must be rejected with exactly `expected`. Counts
/// one attempted operation, failed when the block is accepted (the node is
/// then rolled back to where it was) or rejected with another tuple.
void expect_rejection(core::EbvNode& node, const core::EbvBlock& block,
                      const core::EbvValidationFailure& expected, const std::string& what,
                      Outcome& out);

/// Submit the two mutated copies of `next` (the block that extends the
/// node's tip): one with a flipped signature byte, rejected as
/// {kScriptFailure, tx, input, kEvalFalse}, and one with a corrupted Merkle
/// branch, rejected as {kExistenceFailed, tx, input}. Both copies are
/// resealed (stake positions and Merkle root recomputed) so that the
/// structural pass lets them through to the layer under test. The node's
/// state is unchanged afterwards.
void check_mutants(core::EbvNode& node, const core::EbvBlock& next, std::uint64_t seed,
                   Outcome& out);

}  // namespace ebv::perf

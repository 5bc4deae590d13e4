// Microbenchmarks for the crypto substrate: the primitives whose costs set
// the EV (Merkle) and SV (ECDSA) components of block validation.
#include <benchmark/benchmark.h>

#include <vector>

#include "chain/sighash.hpp"
#include "chain/sighash_template.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/merkle.hpp"
#include "crypto/parse_memo.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "crypto/u256.hpp"
#include "util/rng.hpp"

namespace {

using namespace ebv;

void BM_Sha256(benchmark::State& state) {
    util::Rng rng(1);
    util::Bytes data(static_cast<std::size_t>(state.range(0)));
    rng.fill(data);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::Sha256::hash(data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(256)->Arg(1024)->Arg(16384);

// The Merkle interior-node primitive, batched: n independent 64-byte
// messages double-hashed per call. Compare scalar vs sse2 vs avx2 with
// EBV_SHA256_IMPL, or watch the auto-dispatched throughput scale with n.
void BM_Sha256d64Many(benchmark::State& state) {
    util::Rng rng(8);
    const auto n = static_cast<std::size_t>(state.range(0));
    util::Bytes in(n * 64);
    rng.fill(in);
    util::Bytes out(n * 32);
    for (auto _ : state) {
        crypto::sha256d64_many(out.data(), in.data(), n);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n) * 64);
    state.SetLabel(crypto::sha256_batch_impl());
}
BENCHMARK(BM_Sha256d64Many)->Arg(1)->Arg(4)->Arg(8)->Arg(64)->Arg(1024);

// Variable-length batch (the EBV leaf / txid shape): n messages of mixed
// sizes double-hashed via the sort-by-block-count batcher.
void BM_Sha256dMany(benchmark::State& state) {
    util::Rng rng(9);
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<util::Bytes> msgs(n);
    std::vector<util::ByteSpan> spans(n);
    for (std::size_t i = 0; i < n; ++i) {
        msgs[i].resize(100 + (i % 7) * 60);  // tx-sized, a few block counts
        rng.fill(msgs[i]);
        spans[i] = msgs[i];
    }
    std::vector<crypto::Sha256::Digest> out(n);
    for (auto _ : state) {
        crypto::sha256d_many(spans.data(), out.data(), n);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.SetLabel(crypto::sha256_batch_impl());
}
BENCHMARK(BM_Sha256dMany)->Arg(8)->Arg(64)->Arg(1024);

void BM_MerkleRoot(benchmark::State& state) {
    util::Rng rng(2);
    std::vector<crypto::Hash256> leaves(static_cast<std::size_t>(state.range(0)));
    for (auto& leaf : leaves) rng.fill({leaf.bytes().data(), 32});
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::merkle_root(leaves));
    }
}
BENCHMARK(BM_MerkleRoot)->Arg(16)->Arg(256)->Arg(2048);

void BM_MerkleBranchBuild(benchmark::State& state) {
    util::Rng rng(3);
    std::vector<crypto::Hash256> leaves(static_cast<std::size_t>(state.range(0)));
    for (auto& leaf : leaves) rng.fill({leaf.bytes().data(), 32});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            crypto::merkle_branch(leaves, static_cast<std::uint32_t>(leaves.size() / 2)));
    }
}
BENCHMARK(BM_MerkleBranchBuild)->Arg(256)->Arg(2048);

// The EV primitive: fold a branch and compare with the root.
void BM_MerkleBranchVerify(benchmark::State& state) {
    util::Rng rng(4);
    std::vector<crypto::Hash256> leaves(static_cast<std::size_t>(state.range(0)));
    for (auto& leaf : leaves) rng.fill({leaf.bytes().data(), 32});
    const auto root = crypto::merkle_root(leaves);
    const auto branch =
        crypto::merkle_branch(leaves, static_cast<std::uint32_t>(leaves.size() / 2));
    const auto leaf = leaves[leaves.size() / 2];
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::fold_branch(leaf, branch) == root);
    }
}
BENCHMARK(BM_MerkleBranchVerify)->Arg(16)->Arg(256)->Arg(2048);

// ---- Field and scalar arithmetic -------------------------------------------
// The operations the curve code is built from. Each iteration feeds its
// result back in, so the rows measure latency, not throughput.

crypto::U256 random_below(util::Rng& rng, const crypto::ModArith& m) {
    crypto::U256 v;
    for (auto& limb : v.limbs) limb = rng.next();
    v = m.reduce(v);
    return v.is_zero() ? crypto::U256::one() : v;
}

void BM_FieldMul(benchmark::State& state) {
    const crypto::ModArith& f = crypto::secp256k1::field();
    util::Rng rng(12);
    crypto::U256 x = random_below(rng, f);
    const crypto::U256 y = random_below(rng, f);
    for (auto _ : state) {
        x = f.mul(x, y);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_FieldMul);

void BM_FieldSqr(benchmark::State& state) {
    const crypto::ModArith& f = crypto::secp256k1::field();
    util::Rng rng(13);
    crypto::U256 x = random_below(rng, f);
    for (auto _ : state) {
        x = f.sqr(x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_FieldSqr);

void BM_FieldInverse(benchmark::State& state) {
    const crypto::ModArith& f = crypto::secp256k1::field();
    util::Rng rng(14);
    crypto::U256 x = random_below(rng, f);
    for (auto _ : state) {
        x = f.inverse(x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_FieldInverse);

// s⁻¹ mod n: one per verify, one k⁻¹ per signature.
void BM_ScalarInverse(benchmark::State& state) {
    const crypto::ModArith& n = crypto::secp256k1::order();
    util::Rng rng(15);
    crypto::U256 x = random_below(rng, n);
    for (auto _ : state) {
        x = n.inverse(x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_ScalarInverse);

void BM_EcdsaSign(benchmark::State& state) {
    util::Rng rng(5);
    const auto key = crypto::PrivateKey::generate(rng);
    crypto::Hash256 digest;
    rng.fill({digest.bytes().data(), 32});
    std::uint8_t counter = 0;
    for (auto _ : state) {
        digest.bytes()[0] = counter++;
        benchmark::DoNotOptimize(key.sign(digest));
    }
}
BENCHMARK(BM_EcdsaSign);

// The SV primitive cost.
void BM_EcdsaVerify(benchmark::State& state) {
    util::Rng rng(6);
    const auto key = crypto::PrivateKey::generate(rng);
    const auto pub = key.public_key();
    crypto::Hash256 digest;
    rng.fill({digest.bytes().data(), 32});
    const auto sig = key.sign(digest);
    for (auto _ : state) {
        benchmark::DoNotOptimize(pub.verify(digest, sig));
    }
}
BENCHMARK(BM_EcdsaVerify);

void BM_PubkeyParse(benchmark::State& state) {
    util::Rng rng(7);
    const auto bytes = crypto::PrivateKey::generate(rng).public_key().serialize();
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::PublicKey::parse(bytes));
    }
}
BENCHMARK(BM_PubkeyParse);

// Point decompression alone: the square root that recovers y from x.
void BM_PubkeyDecompress(benchmark::State& state) {
    util::Rng rng(7);
    const auto bytes = crypto::PrivateKey::generate(rng).public_key().serialize();
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::secp256k1::parse_compressed(bytes));
    }
}
BENCHMARK(BM_PubkeyDecompress);

void BM_PubkeyParseMemo(benchmark::State& state) {
    util::Rng rng(7);
    const auto bytes = crypto::PrivateKey::generate(rng).public_key().serialize();
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::parse_public_key_memo(bytes));
    }
}
BENCHMARK(BM_PubkeyParseMemo);

// ---- Sighash: naive re-serialization vs O(n) template ----------------------
// Arg is the input count n. The naive path re-serializes the whole
// transaction per input (O(n · tx_size) total); the template serializes once
// and patch-and-hashes per input. Both loops produce all n digests per
// iteration, so items/s are directly comparable at each n.

chain::Transaction sighash_bench_tx(std::size_t inputs) {
    util::Rng rng(10);
    chain::Transaction tx;
    tx.vin.resize(inputs);
    for (auto& in : tx.vin) {
        rng.fill({in.prevout.txid.bytes().data(), 32});
        in.prevout.index = static_cast<std::uint32_t>(rng.next());
    }
    tx.vout.resize(2);
    for (auto& out : tx.vout) {
        out.value = 50'000;
        out.lock_script.resize(25);  // P2PKH-sized
        rng.fill(out.lock_script);
    }
    return tx;
}

void BM_Sighash_Naive(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const chain::Transaction tx = sighash_bench_tx(n);
    util::Bytes script(25);
    util::Rng(11).fill(script);
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i) {
            benchmark::DoNotOptimize(
                chain::signature_hash(tx, i, script, chain::kSigHashAll));
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Sighash_Naive)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Streaming consumption: midstate resume + patch per digest (what an
// isolated checker does). Build cost is paid every iteration, like the
// validators pay it once per transaction.
void BM_Sighash_TemplateStream(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const chain::Transaction tx = sighash_bench_tx(n);
    util::Bytes script(25);
    util::Rng(11).fill(script);
    for (auto _ : state) {
        const chain::SighashTemplate tpl = chain::SighashTemplate::build(tx);
        for (std::size_t i = 0; i < n; ++i) {
            benchmark::DoNotOptimize(tpl.digest(i, script, chain::kSigHashAll));
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.SetLabel(crypto::sha256_impl());
}
BENCHMARK(BM_Sighash_TemplateStream)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Batched consumption: materialize the n patched preimages from the base
// buffer and push them through one sha256d_many call — the SIMD-lane path
// core::TxSighashCache takes for a transaction's standard digests.
void BM_Sighash_Template(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const chain::Transaction tx = sighash_bench_tx(n);
    util::Bytes script(25);
    util::Rng(11).fill(script);
    std::vector<util::Bytes> preimages(n);
    std::vector<util::ByteSpan> spans(n);
    std::vector<crypto::Sha256::Digest> digests(n);
    for (auto _ : state) {
        const chain::SighashTemplate tpl = chain::SighashTemplate::build(tx);
        for (std::size_t i = 0; i < n; ++i) {
            tpl.preimage(i, script, chain::kSigHashAll, preimages[i]);
            spans[i] = {preimages[i].data(), preimages[i].size()};
        }
        crypto::sha256d_many(spans.data(), digests.data(), n);
        benchmark::DoNotOptimize(digests.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.SetLabel(crypto::sha256_batch_impl());
}
BENCHMARK(BM_Sighash_Template)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();

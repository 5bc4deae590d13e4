// ECDSA verification against independent references: Montgomery batch
// inversion (it converts the generator tables to affine) against
// one-at-a-time inverses, the Strauss/Shamir double-scalar multiply against
// two separate multiplies, and PublicKey::verify — GLV split, projective
// x-check — over a randomized 10k-signature corpus (valid and corrupted)
// against a slow textbook verify that shares neither.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string_view>
#include <vector>

#include "crypto/ecdsa.hpp"
#include "crypto/hash_types.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace ebv::crypto {
namespace {

namespace k1 = secp256k1;

Hash256 msg_hash(std::string_view msg) { return hash256(util::as_bytes(msg)); }

U256 random_u256(util::Rng& rng) {
    U256 v;
    for (auto& limb : v.limbs) limb = rng.next();
    return v;
}

U256 random_nonzero(util::Rng& rng, const ModArith& m) {
    for (;;) {
        const U256 v = m.reduce(random_u256(rng));
        if (!v.is_zero()) return v;
    }
}

// ---------------------------------------------------------------------------
// Montgomery batch inversion

void check_inverse_batch(const ModArith& m, std::size_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<U256> values(n);
    for (auto& v : values) v = random_nonzero(rng, m);
    std::vector<U256> expected(n);
    for (std::size_t i = 0; i < n; ++i) expected[i] = m.inverse(values[i]);
    m.inverse_batch(values.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(values[i], expected[i]) << "modulus mismatch at index " << i;
    }
}

TEST(InverseBatch, MatchesScalarInverseOverField) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                std::size_t{64}}) {
        check_inverse_batch(k1::field(), n, 100 + n);
    }
}

TEST(InverseBatch, MatchesScalarInverseOverOrder) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                std::size_t{64}}) {
        check_inverse_batch(k1::order(), n, 200 + n);
    }
}

TEST(InverseBatch, EmptyIsNoop) {
    k1::field().inverse_batch(nullptr, 0);  // must not crash
}

TEST(InverseBatch, UnreducedInputsAreReducedFirst) {
    // inverse() accepts unreduced inputs (it reduces internally); the batch
    // form must agree even when a value exceeds the modulus.
    const ModArith& m = k1::order();
    U256 big = m.modulus();
    big.limbs[0] += 5;  // modulus + 5, no carry (order is far below 2^256-5)
    U256 values[2] = {big, U256::from_u64(7)};
    const U256 expected0 = m.inverse(big);
    const U256 expected1 = m.inverse(U256::from_u64(7));
    m.inverse_batch(values, 2);
    EXPECT_EQ(values[0], expected0);
    EXPECT_EQ(values[1], expected1);
}

// ---------------------------------------------------------------------------
// Strauss/Shamir double-scalar multiplication

k1::Point reference_double_mul(const k1::Point& p, const U256& u1, const U256& u2) {
    return k1::add(k1::multiply_generator(u1), k1::multiply(p, u2));
}

TEST(StraussShamir, MatchesIndependentMultiplies) {
    util::Rng rng(7);
    for (int i = 0; i < 16; ++i) {
        const PrivateKey key = PrivateKey::generate(rng);
        const k1::Point p = key.public_key().point();
        const U256 u1 = random_u256(rng);
        const U256 u2 = random_u256(rng);
        EXPECT_EQ(k1::multiply_double_generator(p, u1, u2),
                  reference_double_mul(p, u1, u2));
    }
}

TEST(StraussShamir, EdgeScalars) {
    util::Rng rng(8);
    const k1::Point p = PrivateKey::generate(rng).public_key().point();
    const U256 n = k1::order().modulus();
    U256 n_minus_1;
    u256_sub(n, U256::one(), n_minus_1);
    const U256 edges[] = {U256::zero(), U256::one(), U256::from_u64(2),
                          n_minus_1, n};
    for (const U256& u1 : edges) {
        for (const U256& u2 : edges) {
            EXPECT_EQ(k1::multiply_double_generator(p, u1, u2),
                      reference_double_mul(p, u1, u2));
        }
    }
}

TEST(StraussShamir, InfinityPointUsesOnlyGeneratorTerm) {
    util::Rng rng(9);
    const U256 u1 = random_u256(rng);
    const U256 u2 = random_u256(rng);
    EXPECT_EQ(k1::multiply_double_generator(k1::Point::at_infinity(), u1, u2),
              k1::multiply_generator(u1));
}

// ---------------------------------------------------------------------------
// 10k-signature corpus against a slow reference verify

/// Textbook ECDSA verify: PublicKey::verify's early rejects, then
/// R = u1·G + u2·P from two independent multiplies and an affine add, and
/// the x-coordinate compare after converting R to affine.
bool reference_verify(const VerifyJob& job) {
    if (!job.key.valid()) return false;
    const ModArith& n = k1::order();
    if (job.sig.r.is_zero() || job.sig.s.is_zero()) return false;
    if (!u256_less(job.sig.r, n.modulus()) || !u256_less(job.sig.s, n.modulus())) return false;
    const U256 z = n.reduce(U256::from_be_bytes(job.digest.span()));
    const U256 s_inv = n.inverse(job.sig.s);
    const k1::Point R = k1::add(k1::multiply_generator(n.mul(z, s_inv)),
                                k1::multiply(job.key.point(), n.mul(job.sig.r, s_inv)));
    return !R.infinity && n.reduce(R.x) == job.sig.r;
}

/// Build one corpus job, corrupting roughly a third of them across every
/// reject class verify() distinguishes.
VerifyJob make_job(util::Rng& rng, const std::vector<PrivateKey>& keys,
                   std::size_t i) {
    const PrivateKey& signer = keys[i % keys.size()];
    char tag[32];
    std::snprintf(tag, sizeof tag, "corpus message %zu", i);
    VerifyJob job;
    job.key = signer.public_key();
    job.digest = msg_hash(tag);
    job.sig = signer.sign(job.digest);

    // Rolls 0-8 pick one corruption class each; the rest (~2/3 of jobs)
    // stay valid, so both verdicts are well represented.
    switch (rng.next() % 27) {
        case 0:  // flip a bit of r
            job.sig.r.limbs[rng.next() % 4] ^= std::uint64_t{1} << (rng.next() % 64);
            break;
        case 1:  // flip a bit of s
            job.sig.s.limbs[rng.next() % 4] ^= std::uint64_t{1} << (rng.next() % 64);
            break;
        case 2:  // signature over a different digest
            job.digest = msg_hash("a different message entirely");
            break;
        case 3:  // verified against the wrong key
            job.key = keys[(i + 1) % keys.size()].public_key();
            break;
        case 4:  // early reject: s == 0
            job.sig.s = U256::zero();
            break;
        case 5:  // early reject: r == 0
            job.sig.r = U256::zero();
            break;
        case 6:  // early reject: r >= n
            job.sig.r = k1::order().modulus();
            break;
        case 7:  // early reject: invalid (default-constructed) public key
            job.key = PublicKey();
            break;
        case 8: {  // high-s variant of a valid signature: n - s
            U256 high_s;
            u256_sub(k1::order().modulus(), job.sig.s, high_s);
            job.sig.s = high_s;  // verify() accepts both s and n - s
            break;
        }
        default:
            break;  // leave valid (~2/3 of the corpus)
    }
    return job;
}

TEST(VerifyBatch, TenThousandSignatureCorpusMatchesSerialVerify) {
    util::Rng rng(4242);
    std::vector<PrivateKey> keys;
    for (int i = 0; i < 32; ++i) keys.push_back(PrivateKey::generate(rng));

    constexpr std::size_t kCorpus = 10'000;
    std::size_t accepts = 0;
    for (std::size_t i = 0; i < kCorpus; ++i) {
        const VerifyJob job = make_job(rng, keys, i);
        const bool got = job.key.verify(job.digest, job.sig);
        EXPECT_EQ(got, reference_verify(job)) << "verdict mismatch at corpus index " << i;
        accepts += got ? 1 : 0;
    }
    // The corruption mix must actually exercise both verdicts.
    EXPECT_GT(accepts, kCorpus / 2);
    EXPECT_LT(accepts, kCorpus);
}

}  // namespace
}  // namespace ebv::crypto

// Edge cases of the curve and signature layers beyond the happy path.
#include <gtest/gtest.h>

#include <optional>

#include "crypto/ecdsa.hpp"
#include "crypto/secp256k1.hpp"
#include "util/rng.hpp"

namespace ebv::crypto {
namespace {

namespace k1 = secp256k1;

TEST(SecpEdge, InfinityIsAdditiveIdentity) {
    const k1::Point inf = k1::Point::at_infinity();
    EXPECT_EQ(k1::add(inf, inf), inf);
    EXPECT_EQ(k1::add(k1::generator(), inf), k1::generator());
    EXPECT_EQ(k1::add(inf, k1::generator()), k1::generator());
    EXPECT_FALSE(inf.on_curve());
}

TEST(SecpEdge, DoublingMatchesAdditionChains) {
    // 8G via three doublings == 8G via repeated addition.
    k1::Point doubled = k1::generator();
    for (int i = 0; i < 3; ++i) doubled = k1::add(doubled, doubled);
    EXPECT_EQ(doubled, k1::multiply(k1::generator(), U256::from_u64(8)));
}

TEST(SecpEdge, ScalarMultipleWrapsModOrder) {
    // (n + 5)·G == 5·G.
    const auto& n = k1::order().modulus();
    U256 n_plus_5 = n;
    U256 five = U256::from_u64(5);
    u256_add(n_plus_5, five, n_plus_5);
    EXPECT_EQ(k1::multiply(k1::generator(), n_plus_5),
              k1::multiply(k1::generator(), five));
    EXPECT_EQ(k1::multiply_generator(n_plus_5), k1::multiply_generator(five));
}

TEST(SecpEdge, NegatePointProperties) {
    util::Rng rng(1);
    const auto key = PrivateKey::generate(rng);
    const k1::Point p = key.public_key().point();
    const k1::Point neg = k1::negate(p);
    EXPECT_TRUE(neg.on_curve());
    EXPECT_EQ(neg.x, p.x);
    EXPECT_NE(neg.y, p.y);
    EXPECT_TRUE(k1::add(p, neg).infinity);
    EXPECT_EQ(k1::negate(k1::Point::at_infinity()), k1::Point::at_infinity());
}

TEST(SecpEdge, ParityPrefixSelectsCorrectY) {
    util::Rng rng(2);
    for (int i = 0; i < 8; ++i) {
        const auto p = PrivateKey::generate(rng).public_key().point();
        std::uint8_t buf[33];
        k1::serialize_compressed(p, buf);
        // Flipping the parity prefix must decode to the negated point.
        buf[0] ^= 0x01;
        const auto flipped = k1::parse_compressed({buf, 33});
        ASSERT_TRUE(flipped.has_value());
        EXPECT_EQ(*flipped, k1::negate(p));
    }
}

TEST(SecpEdge, XBeyondFieldRejected) {
    std::uint8_t buf[33];
    buf[0] = 0x02;
    k1::field().modulus().to_be_bytes({buf + 1, 32});  // x == p
    EXPECT_FALSE(k1::parse_compressed({buf, 33}).has_value());
}

TEST(SecpEdge, ProjectiveXCheckTakesRPlusNBranch) {
    // A curve point whose affine x lies in [n, p): x mod n == x - n, so the
    // check must accept r = x - n through the (r + n)·Z² == X branch.
    const ModArith& f = k1::field();
    const U256& n = k1::order().modulus();
    std::optional<k1::Point> point;
    for (std::uint64_t k = 1; !point; ++k) {
        U256 x;
        u256_add(n, U256::from_u64(k), x);
        std::uint8_t buf[33];
        buf[0] = 0x02;
        x.to_be_bytes({buf + 1, 32});
        point = k1::parse_compressed({buf, 33});
    }
    ASSERT_FALSE(u256_less(point->x, n));

    // Jacobian (X, Y, Z) = (x·Z², y·Z³, Z) with Z != 1.
    const U256 z = U256::from_hex(
        "1b84c5567b126440995d3ed5aaba0565d71e1834604819ff9c17f5e9d5dd078f");
    const U256 zz = f.sqr(z);
    const U256 jx = f.mul(point->x, zz);

    U256 r;
    u256_sub(point->x, n, r);
    EXPECT_TRUE(k1::detail::jacobian_x_mod_n_equals(jx, z, r));
    EXPECT_FALSE(k1::detail::jacobian_x_mod_n_equals(jx, z, point->x));  // r >= n
    U256 r_next;
    u256_add(r, U256::one(), r_next);
    EXPECT_FALSE(k1::detail::jacobian_x_mod_n_equals(jx, z, r_next));
    // The Z = 1 form agrees.
    EXPECT_TRUE(k1::detail::jacobian_x_mod_n_equals(point->x, U256::one(), r));
}

TEST(SecpEdge, ProjectiveXCheckDirectBranch) {
    // x < n: only r = x matches, and r + n (which exceeds p) is never tried.
    const ModArith& f = k1::field();
    const k1::Point g = k1::generator();
    const U256 z = U256::from_u64(0x1234567);
    const U256 jx = f.mul(g.x, f.sqr(z));
    EXPECT_TRUE(k1::detail::jacobian_x_mod_n_equals(jx, z, g.x));
    EXPECT_FALSE(k1::detail::jacobian_x_mod_n_equals(jx, z, f.add(g.x, U256::one())));
}

TEST(EcdsaEdge, SignaturesAreLowSNormalized) {
    util::Rng rng(3);
    const auto key = PrivateKey::generate(rng);
    for (int i = 0; i < 20; ++i) {
        Hash256 digest;
        rng.fill({digest.bytes().data(), 32});
        const Signature sig = key.sign(digest);
        EXPECT_TRUE(sig.is_low_s());
        // The high-s counterpart also verifies mathematically (malleability)
        // but is non-canonical; we only guarantee we never *emit* it.
        Signature high = sig;
        high.s = k1::order().neg(high.s);
        EXPECT_FALSE(high.is_low_s());
        EXPECT_TRUE(key.public_key().verify(digest, high));
    }
}

TEST(EcdsaEdge, DifferentMessagesNeverShareNonce) {
    // RFC 6979 nonces are message-dependent: identical r across two
    // different digests would leak the key.
    util::Rng rng(4);
    const auto key = PrivateKey::generate(rng);
    Hash256 d1, d2;
    rng.fill({d1.bytes().data(), 32});
    rng.fill({d2.bytes().data(), 32});
    EXPECT_NE(key.sign(d1).r, key.sign(d2).r);
}

TEST(EcdsaEdge, VerifyRejectsROrSEqualToOrder) {
    util::Rng rng(5);
    const auto key = PrivateKey::generate(rng);
    Hash256 digest;
    rng.fill({digest.bytes().data(), 32});
    Signature sig = key.sign(digest);

    Signature r_n = sig;
    r_n.r = k1::order().modulus();
    EXPECT_FALSE(key.public_key().verify(digest, r_n));

    Signature s_n = sig;
    s_n.s = k1::order().modulus();
    EXPECT_FALSE(key.public_key().verify(digest, s_n));
}

TEST(EcdsaEdge, DerMinimalIntegerEncodings) {
    // r = s = 1 encodes to the shortest legal DER and round-trips.
    Signature tiny{U256::one(), U256::one()};
    const auto der = tiny.to_der();
    EXPECT_EQ(der.size(), 8u);  // 30 06 02 01 01 02 01 01
    const auto parsed = Signature::from_der(der);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->r, U256::one());
    EXPECT_EQ(parsed->s, U256::one());
}

TEST(EcdsaEdge, DerRejectsNonMinimalPadding) {
    // 0x00 prefix on a value whose top bit is clear is non-minimal.
    const util::Bytes bad = {0x30, 0x08, 0x02, 0x02, 0x00, 0x01, 0x02, 0x02, 0x00, 0x01};
    EXPECT_FALSE(Signature::from_der(bad).has_value());
}

class ScalarMulSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalarMulSweep, TableMatchesGenericForStructuredScalars) {
    // Scalars with pathological nibble patterns (all zeros except one
    // nibble, repeating patterns, etc).
    U256 k = U256::from_u64(GetParam());
    EXPECT_EQ(k1::multiply_generator(k), k1::multiply(k1::generator(), k));

    // Also smear the value across high limbs.
    U256 high;
    high.limbs[3] = GetParam();
    EXPECT_EQ(k1::multiply_generator(high), k1::multiply(k1::generator(), high));
}

INSTANTIATE_TEST_SUITE_P(Patterns, ScalarMulSweep,
                         ::testing::Values(1ULL, 2ULL, 15ULL, 16ULL, 0xffULL,
                                           0x8000000000000000ULL, 0xf0f0f0f0f0f0f0f0ULL,
                                           0xffffffffffffffffULL));

}  // namespace
}  // namespace ebv::crypto

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "crypto/secp256k1.hpp"
#include "crypto/u256.hpp"
#include "util/rng.hpp"

namespace ebv::crypto {
namespace {

U256 random_u256(util::Rng& rng) {
    U256 v;
    for (auto& limb : v.limbs) limb = rng.next();
    return v;
}

/// Reference modular multiplication: shift-and-add with a reduction step
/// after every shift. O(256) but obviously correct.
U256 reference_modmul(const U256& a, const U256& b, const U256& m) {
    auto mod_reduce = [&](U256& x) {
        while (!u256_less(x, m)) u256_sub(x, m, x);
    };

    // x + 2^256 ≡ x + (2^256 - m) (mod m): fold a carry-out back in.
    U256 complement;
    {
        U256 not_m;
        for (int i = 0; i < 4; ++i) not_m.limbs[i] = ~m.limbs[i];
        u256_add(not_m, U256::one(), complement);
    }
    auto mod_add = [&](const U256& x, const U256& y) {
        U256 sum;
        if (u256_add(x, y, sum)) u256_add(sum, complement, sum);
        mod_reduce(sum);
        return sum;
    };

    U256 acc = U256::zero();
    U256 addend = a;
    mod_reduce(addend);

    for (int bit = 0; bit < 256; ++bit) {
        if (b.bit(static_cast<unsigned>(bit))) acc = mod_add(acc, addend);
        addend = mod_add(addend, addend);
    }
    return acc;
}

TEST(U256, BytesRoundTrip) {
    util::Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        const U256 v = random_u256(rng);
        std::uint8_t buf[32];
        v.to_be_bytes(buf);
        EXPECT_EQ(U256::from_be_bytes({buf, 32}), v);
    }
}

TEST(U256, FromHexMatchesBytes) {
    const U256 v = U256::from_hex(
        "00000000000000000000000000000000000000000000000000000000000000ff");
    EXPECT_EQ(v, U256::from_u64(0xff));

    const U256 top = U256::from_hex(
        "8000000000000000000000000000000000000000000000000000000000000000");
    EXPECT_EQ(top.limbs[3], 0x8000000000000000ULL);
    EXPECT_EQ(top.limbs[0], 0u);
}

TEST(U256, AddSubInverse) {
    util::Rng rng(2);
    for (int i = 0; i < 100; ++i) {
        const U256 a = random_u256(rng);
        const U256 b = random_u256(rng);
        U256 sum, back;
        const std::uint64_t carry = u256_add(a, b, sum);
        const std::uint64_t borrow = u256_sub(sum, b, back);
        EXPECT_EQ(back, a);
        EXPECT_EQ(carry, borrow);  // overflow in add shows up as borrow coming back
    }
}

TEST(U256, ComparisonIsTotalOrder) {
    const U256 small = U256::from_u64(5);
    const U256 large = U256::from_hex(
        "0000000000000001000000000000000000000000000000000000000000000000");
    EXPECT_TRUE(u256_less(small, large));
    EXPECT_FALSE(u256_less(large, small));
    EXPECT_FALSE(u256_less(small, small));
    EXPECT_TRUE(u256_less_equal(small, small));
}

TEST(U256, MulWideLowLimbsMatchNativeMul) {
    util::Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t a = rng.next();
        const std::uint64_t b = rng.next();
        std::uint64_t wide[8];
        u256_mul_wide(U256::from_u64(a), U256::from_u64(b), wide);
        const unsigned __int128 expected = static_cast<unsigned __int128>(a) * b;
        EXPECT_EQ(wide[0], static_cast<std::uint64_t>(expected));
        EXPECT_EQ(wide[1], static_cast<std::uint64_t>(expected >> 64));
        for (int j = 2; j < 8; ++j) EXPECT_EQ(wide[j], 0u);
    }
}

class ModArithAgainstReference : public ::testing::TestWithParam<const char*> {
protected:
    ModArith arith() const { return ModArith(U256::from_hex(GetParam())); }
};

TEST_P(ModArithAgainstReference, MulMatchesShiftAddReference) {
    const ModArith m = arith();
    util::Rng rng(4);
    for (int i = 0; i < 60; ++i) {
        const U256 a = m.reduce(random_u256(rng));
        const U256 b = m.reduce(random_u256(rng));
        EXPECT_EQ(m.mul(a, b), reference_modmul(a, b, m.modulus()));
    }
}

TEST_P(ModArithAgainstReference, AddSubNegConsistent) {
    const ModArith m = arith();
    util::Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        const U256 a = m.reduce(random_u256(rng));
        const U256 b = m.reduce(random_u256(rng));
        // (a + b) - b == a
        EXPECT_EQ(m.sub(m.add(a, b), b), a);
        // a + (-a) == 0
        EXPECT_TRUE(m.add(a, m.neg(a)).is_zero());
    }
}

TEST_P(ModArithAgainstReference, InverseIsMultiplicativeInverse) {
    const ModArith m = arith();
    util::Rng rng(6);
    for (int i = 0; i < 20; ++i) {
        U256 a = m.reduce(random_u256(rng));
        if (a.is_zero()) a = U256::one();
        EXPECT_EQ(m.mul(a, m.inverse(a)), U256::one());
    }
}

TEST_P(ModArithAgainstReference, PowMatchesRepeatedMul) {
    const ModArith m = arith();
    util::Rng rng(7);
    const U256 base = m.reduce(random_u256(rng));
    U256 acc = U256::one();
    for (std::uint64_t e = 0; e <= 20; ++e) {
        EXPECT_EQ(m.pow(base, U256::from_u64(e)), acc) << "exponent " << e;
        acc = m.mul(acc, base);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Secp256k1Moduli, ModArithAgainstReference,
    ::testing::Values(
        // field prime p
        "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f",
        // group order n
        "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"));

// ---- Differential test against a slow reference ----------------------------
// The reference shares no code with ModArith: products are schoolbook over
// 32-bit digits, reduction is bit-by-bit (shift in one bit, subtract m when
// the remainder reaches it), and inverses are Fermat powers built from the
// reference multiply.

using Wide = std::array<std::uint64_t, 8>;

Wide ref_product(const U256& a, const U256& b) {
    std::uint32_t x[8], y[8];
    for (int i = 0; i < 4; ++i) {
        x[2 * i] = static_cast<std::uint32_t>(a.limbs[i]);
        x[2 * i + 1] = static_cast<std::uint32_t>(a.limbs[i] >> 32);
        y[2 * i] = static_cast<std::uint32_t>(b.limbs[i]);
        y[2 * i + 1] = static_cast<std::uint32_t>(b.limbs[i] >> 32);
    }
    std::uint64_t digits[16] = {};
    for (int i = 0; i < 8; ++i) {
        std::uint64_t carry = 0;
        for (int j = 0; j < 8; ++j) {
            const std::uint64_t cur =
                static_cast<std::uint64_t>(x[i]) * y[j] + digits[i + j] + carry;
            digits[i + j] = cur & 0xffffffffULL;
            carry = cur >> 32;
        }
        digits[i + 8] = carry;
    }
    Wide out{};
    for (int i = 0; i < 8; ++i) out[i] = digits[2 * i] | digits[2 * i + 1] << 32;
    return out;
}

/// value mod m, one bit at a time from the top.
U256 ref_reduce(const Wide& value, const U256& m) {
    U256 r = U256::zero();
    for (int bit = 511; bit >= 0; --bit) {
        // r = 2r + bit; r < m keeps 2r + 1 below 2m < 2^257.
        const std::uint64_t top = r.limbs[3] >> 63;
        for (int i = 3; i > 0; --i) r.limbs[i] = r.limbs[i] << 1 | r.limbs[i - 1] >> 63;
        r.limbs[0] = r.limbs[0] << 1 | ((value[bit / 64] >> (bit % 64)) & 1);
        if (top != 0 || !u256_less(r, m)) u256_sub(r, m, r);
    }
    return r;
}

Wide widen(const U256& a, std::uint64_t carry = 0) {
    return Wide{a.limbs[0], a.limbs[1], a.limbs[2], a.limbs[3], carry, 0, 0, 0};
}

U256 ref_mul(const U256& a, const U256& b, const U256& m) {
    return ref_reduce(ref_product(a, b), m);
}

U256 ref_add(const U256& a, const U256& b, const U256& m) {
    U256 sum;
    const std::uint64_t carry = u256_add(a, b, sum);
    return ref_reduce(widen(sum, carry), m);
}

U256 ref_sub(const U256& a, const U256& b, const U256& m) {
    const U256 x = ref_reduce(widen(a), m);
    const U256 y = ref_reduce(widen(b), m);
    U256 out;
    if (u256_sub(x, y, out)) u256_add(out, m, out);  // x - y + m, wraps to the true value
    return out;
}

U256 ref_pow(const U256& base, const U256& exponent, const U256& m) {
    U256 acc = U256::one();
    for (int bit = 255; bit >= 0; --bit) {
        acc = ref_mul(acc, acc, m);
        if (exponent.bit(static_cast<unsigned>(bit))) acc = ref_mul(acc, base, m);
    }
    return acc;
}

/// Edge inputs for modulus m: 0, 1, m-1, m, m+1, 2^256-1, and values in
/// [m, 2^256) — the range unreduced add/sub results land in.
std::vector<U256> edge_inputs(const U256& m, util::Rng& rng) {
    U256 max256;
    for (auto& limb : max256.limbs) limb = ~0ULL;
    U256 m_minus_1, m_plus_1, complement;
    u256_sub(m, U256::one(), m_minus_1);
    u256_add(m, U256::one(), m_plus_1);
    u256_sub(max256, m, complement);  // 2^256 - 1 - m
    std::vector<U256> out = {U256::zero(), U256::one(), m_minus_1, m, m_plus_1, max256};
    for (int i = 0; i < 4; ++i) {
        // m + (random mod (2^256 - m)), by folding a random value below C.
        U256 offset = random_u256(rng);
        offset.limbs[3] = 0;
        offset.limbs[2] &= complement.limbs[2];
        if (!u256_less(offset, complement)) offset = complement;
        U256 v;
        u256_add(m, offset, v);
        out.push_back(v);
    }
    return out;
}

TEST_P(ModArithAgainstReference, DifferentialAgainstSlowReference) {
    const ModArith m = arith();
    const U256& mod = m.modulus();
    util::Rng rng(17);
    std::vector<U256> inputs = edge_inputs(mod, rng);
    for (int i = 0; i < 12; ++i) inputs.push_back(random_u256(rng));

    for (const U256& a : inputs) {
        EXPECT_EQ(m.reduce(a), ref_reduce(widen(a), mod));
        EXPECT_EQ(m.neg(a), ref_sub(U256::zero(), a, mod));
        EXPECT_EQ(m.sqr(a), ref_mul(a, a, mod));
        for (const U256& b : inputs) {
            EXPECT_EQ(m.mul(a, b), ref_mul(a, b, mod));
            EXPECT_EQ(m.add(a, b), ref_add(a, b, mod));
            EXPECT_EQ(m.sub(a, b), ref_sub(a, b, mod));
            const Wide wide = ref_product(a, b);
            EXPECT_EQ(m.reduce_wide(wide.data()), ref_reduce(wide, mod));
        }
    }

    // reduce_wide on 512-bit values that are not products.
    std::vector<Wide> wides = {Wide{}, Wide{1, 0, 0, 0, 0, 0, 0, 0}};
    Wide all_ones;
    all_ones.fill(~0ULL);
    wides.push_back(all_ones);
    wides.push_back(Wide{0, 0, 0, 0, ~0ULL, ~0ULL, ~0ULL, ~0ULL});
    for (int i = 0; i < 20; ++i) {
        Wide w;
        for (auto& limb : w) limb = rng.next();
        wides.push_back(w);
    }
    for (const Wide& w : wides) EXPECT_EQ(m.reduce_wide(w.data()), ref_reduce(w, mod));

    // inverse against the Fermat power a^(m-2).
    U256 exponent;
    u256_sub(mod, U256::from_u64(2), exponent);
    for (const U256& a : inputs) {
        const U256 reduced = ref_reduce(widen(a), mod);
        if (reduced.is_zero()) continue;
        EXPECT_EQ(m.inverse(a), ref_pow(reduced, exponent, mod));
    }
}

TEST(ModArith, FieldSqrtMatchesPow) {
    const ModArith& f = secp256k1::field();
    // (p + 1) / 4
    U256 exponent;
    u256_add(f.modulus(), U256::one(), exponent);
    for (int i = 0; i < 4; ++i) {
        exponent.limbs[i] >>= 2;
        if (i < 3) exponent.limbs[i] |= exponent.limbs[i + 1] << 62;
    }
    util::Rng rng(18);
    std::vector<U256> inputs = edge_inputs(f.modulus(), rng);
    for (int i = 0; i < 30; ++i) inputs.push_back(random_u256(rng));
    for (const U256& a : inputs) {
        EXPECT_EQ(secp256k1::field_sqrt(a), f.pow(a, exponent));
        EXPECT_EQ(secp256k1::field_sqrt(a), ref_pow(ref_reduce(widen(a), f.modulus()),
                                                    exponent, f.modulus()));
    }
}

TEST(ModArith, ReduceWideHandlesMaxValue) {
    const ModArith f = secp256k1::field();
    std::uint64_t wide[8];
    for (auto& limb : wide) limb = ~0ULL;  // 2^512 - 1
    const U256 reduced = f.reduce_wide(wide);
    EXPECT_TRUE(u256_less(reduced, f.modulus()));
    // Cross-check: (2^256-1)*(2^256-1) + 2*(2^256-1) = 2^512-1, so
    // reduce(2^512-1) == mul(m-1+..) — verify via reference on the identity
    // (x*y) where x=y=2^256-1 reduced first.
    U256 max256;
    for (auto& l : max256.limbs) l = ~0ULL;
    const U256 x = f.reduce(max256);
    const U256 expect_prod = reference_modmul(x, x, f.modulus());
    const U256 two_x = f.add(x, x);
    // 2^512 - 1 = (2^256-1)^2 + 2*(2^256-1)
    EXPECT_EQ(reduced, f.add(expect_prod, two_x));
}

}  // namespace
}  // namespace ebv::crypto

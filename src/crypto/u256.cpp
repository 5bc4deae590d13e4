#include "crypto/u256.hpp"

#include <vector>

#include "util/assert.hpp"
#include "util/endian.hpp"

namespace ebv::crypto {

using detail::u128;

U256 U256::from_be_bytes(util::ByteSpan bytes32) {
    EBV_EXPECTS(bytes32.size() == 32);
    U256 v;
    for (int i = 0; i < 4; ++i) v.limbs[3 - i] = util::load_be64(bytes32.data() + 8 * i);
    return v;
}

void U256::to_be_bytes(util::MutableByteSpan out32) const {
    EBV_EXPECTS(out32.size() == 32);
    for (int i = 0; i < 4; ++i) util::store_be64(out32.data() + 8 * i, limbs[3 - i]);
}

U256 U256::from_hex(std::string_view hex64) {
    EBV_EXPECTS(hex64.size() == 64);
    auto nibble = [](char c) -> std::uint64_t {
        if (c >= '0' && c <= '9') return static_cast<std::uint64_t>(c - '0');
        if (c >= 'a' && c <= 'f') return static_cast<std::uint64_t>(c - 'a' + 10);
        if (c >= 'A' && c <= 'F') return static_cast<std::uint64_t>(c - 'A' + 10);
        EBV_EXPECTS(false && "invalid hex digit");
        return 0;
    };
    U256 v;
    for (int limb = 0; limb < 4; ++limb) {
        std::uint64_t acc = 0;
        for (int i = 0; i < 16; ++i) acc = acc << 4 | nibble(hex64[16 * limb + i]);
        v.limbs[3 - limb] = acc;
    }
    return v;
}

ModArith::ModArith(const U256& modulus) : m_(modulus) {
    // complement = 2^256 - m, computed as (~m) + 1 over 4 limbs.
    U256 not_m;
    for (int i = 0; i < 4; ++i) not_m.limbs[i] = ~m_.limbs[i];
    u256_add(not_m, U256::one(), complement_);
    EBV_EXPECTS(m_.limbs[3] >= (1ULL << 63));  // m > 2^255
    // reduce_wide's fixed fold count holds for C < 2^160. Both secp256k1
    // moduli qualify: p's complement is one limb, n's is 129 bits.
    EBV_EXPECTS(complement_.limbs[3] == 0 && complement_.limbs[2] < (1ULL << 32));
    one_limb_complement_ = (complement_.limbs[1] | complement_.limbs[2]) == 0;
}

U256 ModArith::neg(const U256& a) const {
    const U256 r = reduce(a);
    if (r.is_zero()) return r;
    U256 out;
    u256_sub(m_, r, out);
    return out;
}

namespace {

/// r[0..7) = lo[0..4) + x[0..4) · c[0..3). The caller's bounds guarantee
/// the sum fits in seven limbs.
void mul_add_4x3(const std::uint64_t lo[4], const std::uint64_t x[4],
                 const std::uint64_t c[3], std::uint64_t r[7]) {
    for (int i = 0; i < 7; ++i) r[i] = 0;
    for (int i = 0; i < 4; ++i) {
        u128 carry = 0;
        for (int j = 0; j < 3; ++j) {
            const u128 cur = static_cast<u128>(x[i]) * c[j] + r[i + j] + carry;
            r[i + j] = static_cast<std::uint64_t>(cur);
            carry = cur >> 64;
        }
        r[i + 3] = static_cast<std::uint64_t>(carry);
    }
    u128 carry = 0;
    for (int i = 0; i < 7; ++i) {
        const u128 sum = static_cast<u128>(r[i]) + (i < 4 ? lo[i] : 0) + carry;
        r[i] = static_cast<std::uint64_t>(sum);
        carry = sum >> 64;
    }
}

}  // namespace

U256 ModArith::reduce_wide_multi_limb(const std::uint64_t w[8]) const {
    // n: C < 2^160. Fold 1 leaves t < 2^417, fold 2 t < 2^322, fold 3
    // t < 2^256 + 2^226; the last carry bit comes back as C.
    std::uint64_t t[7];
    std::uint64_t u[7];
    const std::uint64_t* c = complement_.limbs.data();
    mul_add_4x3(w, w + 4, c, t);
    const std::uint64_t hi2[4] = {t[4], t[5], t[6], 0};
    mul_add_4x3(t, hi2, c, u);
    const std::uint64_t hi3[4] = {u[4], 0, 0, 0};
    mul_add_4x3(u, hi3, c, t);
    U256 out{{t[0], t[1], t[2], t[3]}};
    if (t[4] != 0) u256_add(out, complement_, out);
    return reduce(out);
}

U256 ModArith::pow(const U256& base, const U256& exponent) const {
    U256 result = U256::one();
    const U256 b = reduce(base);
    bool started = false;
    for (int i = 255; i >= 0; --i) {
        if (started) result = sqr(result);
        if (exponent.bit(static_cast<unsigned>(i))) {
            if (started) {
                result = mul(result, b);
            } else {
                result = b;
                started = true;
            }
        }
    }
    return started ? result : U256::one();
}

namespace {

/// v >>= shift for shift in [1, 63], with `top` shifted in from above.
void shift_right(U256& v, unsigned shift, std::uint64_t top = 0) {
    for (int i = 0; i < 3; ++i)
        v.limbs[i] = (v.limbs[i] >> shift) | (v.limbs[i + 1] << (64 - shift));
    v.limbs[3] = (v.limbs[3] >> shift) | (top << (64 - shift));
}

/// x / 2 mod m for odd m and x < m: (x + m) / 2 when x is odd.
void halve_mod(U256& x, const U256& m) {
    const std::uint64_t carry = x.is_odd() ? u256_add(x, m, x) : 0;
    shift_right(x, 1, carry);
}

/// Strip the trailing zero bits of v (nonzero), halving x mod m once per bit
/// so that x·a ≡ v (mod m) keeps holding.
void strip_twos(U256& v, U256& x, const U256& m) {
    while (v.limbs[0] == 0) {  // whole zero limbs first
        v.limbs = {v.limbs[1], v.limbs[2], v.limbs[3], 0};
        for (int i = 0; i < 64; ++i) halve_mod(x, m);
    }
    const auto tz = static_cast<unsigned>(__builtin_ctzll(v.limbs[0]));
    if (tz == 0) return;
    shift_right(v, tz);
    for (unsigned i = 0; i < tz; ++i) halve_mod(x, m);
}

}  // namespace

U256 ModArith::inverse(const U256& a) const {
    // Variable-time binary extended GCD (Stein): keeps x1·a ≡ u and
    // x2·a ≡ v (mod m) while driving u or v down to gcd(a, m) = 1. Needs m
    // odd and a coprime to m — true for every nonzero a when m is prime.
    U256 u = reduce(a);
    EBV_EXPECTS(!u.is_zero());
    U256 v = m_;
    U256 x1 = U256::one();
    U256 x2 = U256::zero();
    const U256 one = U256::one();
    for (;;) {
        strip_twos(u, x1, m_);
        if (u == one) return x1;
        strip_twos(v, x2, m_);
        if (v == one) return x2;
        // Both odd; the difference is even and shrinks on the next strip.
        if (u256_less(u, v)) {
            u256_sub(v, u, v);
            x2 = sub(x2, x1);
        } else {
            u256_sub(u, v, u);
            x1 = sub(x1, x2);
        }
    }
}

void ModArith::inverse_batch(U256* values, std::size_t n) const {
    if (n == 0) return;
    if (n == 1) {
        values[0] = inverse(values[0]);
        return;
    }

    // prefix[i] = values[0] * ... * values[i]. The product is nonzero iff
    // every factor is (m is prime), so inverse() below doubles as the
    // all-nonzero precondition check.
    std::vector<U256> prefix(n);
    prefix[0] = reduce(values[0]);
    for (std::size_t i = 1; i < n; ++i) prefix[i] = mul(prefix[i - 1], values[i]);

    U256 inv = inverse(prefix[n - 1]);
    for (std::size_t i = n - 1; i > 0; --i) {
        const U256 value = values[i];
        values[i] = mul(inv, prefix[i - 1]);
        inv = mul(inv, value);
    }
    values[0] = inv;
}

}  // namespace ebv::crypto

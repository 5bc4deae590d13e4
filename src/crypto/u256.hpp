// 256-bit unsigned integers (4×64-bit little-endian limbs) and modular
// arithmetic over a 256-bit modulus whose complement C = 2^256 - m is small
// (true for both the secp256k1 field prime p and the group order n).
// Reduction folds a fixed number of times: hi*2^256 + lo ≡ hi*C + lo, with
// C one limb wide for p and three for n.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "util/span.hpp"

namespace ebv::crypto {

struct U256 {
    // limbs[0] is the least significant 64 bits.
    std::array<std::uint64_t, 4> limbs{};

    static constexpr U256 zero() { return {}; }
    static constexpr U256 one() { return U256{{1, 0, 0, 0}}; }
    static U256 from_u64(std::uint64_t v) { return U256{{v, 0, 0, 0}}; }

    /// Big-endian 32-byte decoding (the natural byte order of hashes/keys).
    static U256 from_be_bytes(util::ByteSpan bytes32);
    void to_be_bytes(util::MutableByteSpan out32) const;

    /// Parse exactly 64 hex characters (big-endian). Aborts on bad input;
    /// intended for compile-time-known constants.
    static U256 from_hex(std::string_view hex64);

    [[nodiscard]] bool is_zero() const {
        return (limbs[0] | limbs[1] | limbs[2] | limbs[3]) == 0;
    }
    [[nodiscard]] bool is_odd() const { return limbs[0] & 1; }
    [[nodiscard]] bool bit(unsigned i) const { return (limbs[i / 64] >> (i % 64)) & 1; }

    friend bool operator==(const U256&, const U256&) = default;
};

/// a < b, a <= b as unsigned 256-bit integers.
inline bool u256_less(const U256& a, const U256& b);
inline bool u256_less_equal(const U256& a, const U256& b) { return !u256_less(b, a); }

/// a + b, returning the carry-out bit.
inline std::uint64_t u256_add(const U256& a, const U256& b, U256& out);
/// a - b, returning the borrow-out bit.
inline std::uint64_t u256_sub(const U256& a, const U256& b, U256& out);
/// Full 512-bit product as 8 limbs (little-endian).
inline void u256_mul_wide(const U256& a, const U256& b, std::uint64_t out[8]);
/// a², the same 512-bit product with the symmetric terms computed once.
inline void u256_sqr_wide(const U256& a, std::uint64_t out[8]);

/// Fixed-modulus arithmetic. The modulus must satisfy 2^255 < m < 2^256 and
/// C = 2^256 - m < 2^160 (both secp256k1 moduli do). Every operation accepts
/// any 256-bit input, reduced or not, and returns a value in [0, m).
class ModArith {
public:
    explicit ModArith(const U256& modulus);

    [[nodiscard]] const U256& modulus() const { return m_; }

    [[nodiscard]] U256 add(const U256& a, const U256& b) const;
    [[nodiscard]] U256 sub(const U256& a, const U256& b) const;
    [[nodiscard]] U256 neg(const U256& a) const;
    [[nodiscard]] U256 mul(const U256& a, const U256& b) const;
    [[nodiscard]] U256 sqr(const U256& a) const;
    [[nodiscard]] U256 pow(const U256& base, const U256& exponent) const;
    /// Inverse by variable-time binary extended GCD (modulus must be
    /// prime); input must be nonzero mod m.
    [[nodiscard]] U256 inverse(const U256& a) const;
    /// Montgomery batch inversion: replace each of the n values with its
    /// inverse using ONE inversion plus 3(n-1) multiplications.
    /// Every value must be nonzero mod m; results are bit-identical to n
    /// independent inverse() calls (the inverse in [0, m) is unique).
    void inverse_batch(U256* values, std::size_t n) const;
    /// Reduce an arbitrary 256-bit value into [0, m).
    [[nodiscard]] U256 reduce(const U256& a) const;
    /// Reduce a 512-bit value (8 limbs) into [0, m).
    [[nodiscard]] U256 reduce_wide(const std::uint64_t limbs[8]) const;

private:
    U256 m_;
    U256 complement_;  // C = 2^256 - m, below 2^160
    bool one_limb_complement_ = false;  // C < 2^64 (the field prime p)

    /// reduce_wide for complements wider than one limb (the group order n).
    [[nodiscard]] U256 reduce_wide_multi_limb(const std::uint64_t w[8]) const;
};

// ---- Inline definitions: the field hot path ---------------------------------

namespace detail {
using u128 = unsigned __int128;
}  // namespace detail

inline bool u256_less(const U256& a, const U256& b) {
    for (int i = 3; i >= 0; --i) {
        if (a.limbs[i] != b.limbs[i]) return a.limbs[i] < b.limbs[i];
    }
    return false;
}

inline std::uint64_t u256_add(const U256& a, const U256& b, U256& out) {
    detail::u128 carry = 0;
    for (int i = 0; i < 4; ++i) {
        const detail::u128 sum = static_cast<detail::u128>(a.limbs[i]) + b.limbs[i] + carry;
        out.limbs[i] = static_cast<std::uint64_t>(sum);
        carry = sum >> 64;
    }
    return static_cast<std::uint64_t>(carry);
}

inline std::uint64_t u256_sub(const U256& a, const U256& b, U256& out) {
    std::uint64_t borrow = 0;
    for (int i = 0; i < 4; ++i) {
        const detail::u128 diff = static_cast<detail::u128>(a.limbs[i]) - b.limbs[i] - borrow;
        out.limbs[i] = static_cast<std::uint64_t>(diff);
        borrow = static_cast<std::uint64_t>((diff >> 64) & 1);
    }
    return borrow;
}

namespace detail {

/// Column accumulator (c0, c1, c2) for the 4×4-limb products: each column
/// sums at most four 128-bit partial products, well inside 192 bits.
struct Accumulator {
    std::uint64_t c0 = 0, c1 = 0, c2 = 0;

    void add(u128 t) {
        const auto lo = static_cast<std::uint64_t>(t);
        auto hi = static_cast<std::uint64_t>(t >> 64);
        c0 += lo;
        hi += c0 < lo;  // hi <= 2^64 - 2, so this cannot wrap
        c1 += hi;
        c2 += c1 < hi;
    }
    void mul(std::uint64_t a, std::uint64_t b) { add(static_cast<u128>(a) * b); }
    void mul2(std::uint64_t a, std::uint64_t b) {
        const u128 t = static_cast<u128>(a) * b;
        add(t);
        add(t);
    }
    /// Pop the finished low limb and shift the accumulator down one limb.
    std::uint64_t extract() {
        const std::uint64_t r = c0;
        c0 = c1;
        c1 = c2;
        c2 = 0;
        return r;
    }
};

}  // namespace detail

inline void u256_mul_wide(const U256& a, const U256& b, std::uint64_t out[8]) {
    const auto& x = a.limbs;
    const auto& y = b.limbs;
    detail::Accumulator acc;
    acc.mul(x[0], y[0]);
    out[0] = acc.extract();
    acc.mul(x[0], y[1]);
    acc.mul(x[1], y[0]);
    out[1] = acc.extract();
    acc.mul(x[0], y[2]);
    acc.mul(x[1], y[1]);
    acc.mul(x[2], y[0]);
    out[2] = acc.extract();
    acc.mul(x[0], y[3]);
    acc.mul(x[1], y[2]);
    acc.mul(x[2], y[1]);
    acc.mul(x[3], y[0]);
    out[3] = acc.extract();
    acc.mul(x[1], y[3]);
    acc.mul(x[2], y[2]);
    acc.mul(x[3], y[1]);
    out[4] = acc.extract();
    acc.mul(x[2], y[3]);
    acc.mul(x[3], y[2]);
    out[5] = acc.extract();
    acc.mul(x[3], y[3]);
    out[6] = acc.extract();
    out[7] = acc.extract();
}

inline void u256_sqr_wide(const U256& a, std::uint64_t out[8]) {
    const auto& x = a.limbs;
    detail::Accumulator acc;
    acc.mul(x[0], x[0]);
    out[0] = acc.extract();
    acc.mul2(x[0], x[1]);
    out[1] = acc.extract();
    acc.mul2(x[0], x[2]);
    acc.mul(x[1], x[1]);
    out[2] = acc.extract();
    acc.mul2(x[0], x[3]);
    acc.mul2(x[1], x[2]);
    out[3] = acc.extract();
    acc.mul2(x[1], x[3]);
    acc.mul(x[2], x[2]);
    out[4] = acc.extract();
    acc.mul2(x[2], x[3]);
    out[5] = acc.extract();
    acc.mul(x[3], x[3]);
    out[6] = acc.extract();
    out[7] = acc.extract();
}

inline U256 ModArith::reduce(const U256& a) const {
    // a < 2^256 < 2m, so one conditional subtract suffices.
    U256 out;
    return u256_sub(a, m_, out) ? a : out;
}

inline U256 ModArith::add(const U256& a, const U256& b) const {
    U256 sum;
    if (u256_add(a, b, sum)) {
        // The true value is sum + 2^256 ≡ sum + C. Only unreduced inputs
        // can overflow again; the wrapped value is then below C, so one
        // more C fits.
        if (u256_add(sum, complement_, sum)) u256_add(sum, complement_, sum);
    }
    return reduce(sum);
}

inline U256 ModArith::sub(const U256& a, const U256& b) const {
    U256 diff;
    if (u256_sub(a, b, diff)) {
        // a - b < 0. Adding m once lands in [0, m) unless b >= m pushed the
        // difference below -m; a second m then suffices (a - b > -2m).
        if (!u256_add(diff, m_, diff)) u256_add(diff, m_, diff);
        return diff;
    }
    return reduce(diff);
}

inline U256 ModArith::reduce_wide(const std::uint64_t w[8]) const {
    // hi·2^256 + lo ≡ hi·C + lo (mod m), folded a fixed number of times.
    if (one_limb_complement_) {
        U256 out;
        // p: C = 2^32 + 977. Fold 1 leaves t < 2^290 (five limbs); fold 2
        // leaves t < 2^256 + 2^67, i.e. at most a carry bit, which fold 3
        // adds back as C without overflowing.
        const std::uint64_t c = complement_.limbs[0];
        detail::u128 acc = 0;
        for (int i = 0; i < 4; ++i) {
            acc += static_cast<detail::u128>(w[4 + i]) * c + w[i];
            out.limbs[i] = static_cast<std::uint64_t>(acc);
            acc >>= 64;
        }
        acc = static_cast<detail::u128>(static_cast<std::uint64_t>(acc)) * c + out.limbs[0];
        out.limbs[0] = static_cast<std::uint64_t>(acc);
        acc >>= 64;
        for (int i = 1; i < 4; ++i) {
            acc += out.limbs[i];
            out.limbs[i] = static_cast<std::uint64_t>(acc);
            acc >>= 64;
        }
        if (acc != 0) u256_add(out, complement_, out);
        return reduce(out);
    }
    return reduce_wide_multi_limb(w);
}

inline U256 ModArith::mul(const U256& a, const U256& b) const {
    std::uint64_t wide[8];
    u256_mul_wide(a, b, wide);
    return reduce_wide(wide);
}

inline U256 ModArith::sqr(const U256& a) const {
    std::uint64_t wide[8];
    u256_sqr_wide(a, wide);
    return reduce_wide(wide);
}

}  // namespace ebv::crypto

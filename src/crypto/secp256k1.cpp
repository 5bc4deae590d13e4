#include "crypto/secp256k1.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <vector>

#include "util/assert.hpp"

namespace ebv::crypto::secp256k1 {

namespace {

const U256 kP =
    U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
const U256 kN =
    U256::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");

const U256 kGx =
    U256::from_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
const U256 kGy =
    U256::from_hex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");

/// Jacobian coordinates: (X, Y, Z) represents (X/Z², Y/Z³); Z == 0 is the
/// point at infinity.
struct Jacobian {
    U256 x{};
    U256 y{};
    U256 z{};  // zero => infinity

    [[nodiscard]] bool infinity() const { return z.is_zero(); }
    static Jacobian at_infinity() { return {}; }
};

Jacobian to_jacobian(const Point& p) {
    if (p.infinity) return Jacobian::at_infinity();
    return Jacobian{p.x, p.y, U256::one()};
}

Point to_affine(const Jacobian& j) {
    if (j.infinity()) return Point::at_infinity();
    const ModArith& f = field();
    const U256 zinv = f.inverse(j.z);
    const U256 zinv2 = f.sqr(zinv);
    const U256 zinv3 = f.mul(zinv2, zinv);
    return Point{f.mul(j.x, zinv2), f.mul(j.y, zinv3), false};
}

/// Doubling for a = 0 (y² = x³ + 7): 3M + 4S; the small constants are
/// additions.
Jacobian jdouble(const Jacobian& a) {
    if (a.infinity()) return a;
    const ModArith& f = field();
    if (a.y.is_zero()) return Jacobian::at_infinity();

    const U256 y2 = f.sqr(a.y);
    const U256 xy2 = f.mul(a.x, y2);
    const U256 s = f.add(f.add(xy2, xy2), f.add(xy2, xy2));  // 4·X·Y²
    const U256 x2 = f.sqr(a.x);
    const U256 m = f.add(f.add(x2, x2), x2);                  // 3·X²
    const U256 x3 = f.sub(f.sub(f.sqr(m), s), s);             // M² − 2S
    const U256 y4 = f.sqr(y2);
    const U256 y4_2 = f.add(y4, y4);
    const U256 y4_8 = f.add(f.add(y4_2, y4_2), f.add(y4_2, y4_2));
    const U256 y3 = f.sub(f.mul(m, f.sub(s, x3)), y4_8);      // M(S − X3) − 8Y⁴
    const U256 yz = f.mul(a.y, a.z);
    return Jacobian{x3, y3, f.add(yz, yz)};                   // 2·Y·Z
}

Jacobian jadd(const Jacobian& a, const Jacobian& b) {
    if (a.infinity()) return b;
    if (b.infinity()) return a;
    const ModArith& f = field();

    const U256 z1z1 = f.sqr(a.z);
    const U256 z2z2 = f.sqr(b.z);
    const U256 u1 = f.mul(a.x, z2z2);
    const U256 u2 = f.mul(b.x, z1z1);
    const U256 s1 = f.mul(a.y, f.mul(z2z2, b.z));
    const U256 s2 = f.mul(b.y, f.mul(z1z1, a.z));

    if (u1 == u2) {
        if (s1 == s2) return jdouble(a);
        return Jacobian::at_infinity();  // P + (−P)
    }

    const U256 h = f.sub(u2, u1);
    const U256 r = f.sub(s2, s1);
    const U256 h2 = f.sqr(h);
    const U256 h3 = f.mul(h2, h);
    const U256 u1h2 = f.mul(u1, h2);

    const U256 x3 = f.sub(f.sub(f.sub(f.sqr(r), h3), u1h2), u1h2);  // r² − H³ − 2·U1H²
    const U256 y3 = f.sub(f.mul(r, f.sub(u1h2, x3)), f.mul(s1, h3));
    const U256 z3 = f.mul(h, f.mul(a.z, b.z));
    return Jacobian{x3, y3, z3};
}

/// A finite affine point, the form the precomputed tables store.
struct Affine {
    U256 x{};
    U256 y{};
};

/// Mixed addition a + b with b affine (Z2 = 1): 8M + 3S instead of jadd's
/// 12M + 4S.
Jacobian jadd_affine(const Jacobian& a, const Affine& b) {
    if (a.infinity()) return Jacobian{b.x, b.y, U256::one()};
    const ModArith& f = field();

    const U256 z1z1 = f.sqr(a.z);
    const U256 u2 = f.mul(b.x, z1z1);
    const U256 s2 = f.mul(b.y, f.mul(z1z1, a.z));

    if (a.x == u2) {
        if (a.y == s2) return jdouble(a);
        return Jacobian::at_infinity();  // P + (−P)
    }

    const U256 h = f.sub(u2, a.x);
    const U256 r = f.sub(s2, a.y);
    const U256 h2 = f.sqr(h);
    const U256 h3 = f.mul(h2, h);
    const U256 v = f.mul(a.x, h2);

    const U256 x3 = f.sub(f.sub(f.sub(f.sqr(r), h3), v), v);  // r² − H³ − 2V
    const U256 y3 = f.sub(f.mul(r, f.sub(v, x3)), f.mul(a.y, h3));
    return Jacobian{x3, y3, f.mul(a.z, h)};
}

Affine negate_affine(const Affine& a) { return Affine{a.x, field().neg(a.y)}; }

/// Convert finite Jacobian points to affine with one shared inversion.
void to_affine_batch(const Jacobian* in, Affine* out, std::size_t n) {
    const ModArith& f = field();
    std::vector<U256> zinv(n);
    for (std::size_t i = 0; i < n; ++i) zinv[i] = in[i].z;
    f.inverse_batch(zinv.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        const U256 zinv2 = f.sqr(zinv[i]);
        out[i] = Affine{f.mul(in[i].x, zinv2), f.mul(in[i].y, f.mul(zinv2, zinv[i]))};
    }
}

/// 4-bit windowed multiply for an arbitrary base point.
Jacobian jmultiply(const Jacobian& p, const U256& k) {
    // table[i] = i·P for i in [1, 15].
    std::array<Jacobian, 16> table;
    table[0] = Jacobian::at_infinity();
    table[1] = p;
    for (int i = 2; i < 16; ++i) table[i] = jadd(table[i - 1], p);

    Jacobian acc = Jacobian::at_infinity();
    for (int nibble = 63; nibble >= 0; --nibble) {
        if (!acc.infinity()) {
            acc = jdouble(acc);
            acc = jdouble(acc);
            acc = jdouble(acc);
            acc = jdouble(acc);
        }
        const unsigned limb = static_cast<unsigned>(nibble / 16);
        const unsigned shift = static_cast<unsigned>(nibble % 16) * 4;
        const unsigned digit = static_cast<unsigned>(k.limbs[limb] >> shift) & 0xf;
        if (digit != 0) acc = jadd(acc, table[digit]);
    }
    return acc;
}

/// Fixed-base table for G: entries_[j][i-1] = i · 16^j · G in affine form,
/// so k·G is a sum of one mixed addition per nonzero nibble of k — no
/// doublings at all. 960 entries, 60 KB.
class GeneratorTable {
public:
    GeneratorTable() {
        std::vector<Jacobian> points(64 * 15);
        Jacobian base{kGx, kGy, U256::one()};  // 16^j · G
        for (int j = 0; j < 64; ++j) {
            Jacobian cur = base;
            for (int i = 0; i < 15; ++i) {
                points[static_cast<std::size_t>(j * 15 + i)] = cur;
                cur = jadd(cur, base);
            }
            base = cur;  // after 15 additions cur == 16 · base
        }
        to_affine_batch(points.data(), &entries_[0][0], points.size());
    }

    [[nodiscard]] Jacobian multiply(const U256& k) const {
        Jacobian acc = Jacobian::at_infinity();
        for (int nibble = 0; nibble < 64; ++nibble) {
            const unsigned limb = static_cast<unsigned>(nibble / 16);
            const unsigned shift = static_cast<unsigned>(nibble % 16) * 4;
            const unsigned digit = static_cast<unsigned>(k.limbs[limb] >> shift) & 0xf;
            if (digit != 0) acc = jadd_affine(acc, entries_[nibble][digit - 1]);
        }
        return acc;
    }

private:
    Affine entries_[64][15];
};

const GeneratorTable& generator_table() {
    static const GeneratorTable table;
    return table;
}

// ---- Strauss/Shamir interleaved double-scalar multiplication ---------------
// u1·G + u2·P shares one doubling chain across both scalars. Each scalar is
// recoded in width-w NAF (odd digits |d| < 2^(w-1), at least w-1 zeros after
// each nonzero digit), so one table addition per w+1 doublings on average.
// P's table is built per call, so it stays small (w = 5, 8 Jacobian
// entries); G's is built once in affine form, so it can be wide (w = 13,
// 2048 entries, 128 KB) and is added with mixed additions.

constexpr int kWnafWidthP = 5;
constexpr int kWnafWidthG = 13;
constexpr int kWnafTableSizeP = 1 << (kWnafWidthP - 2);  // P, 3P, ..., 15P
constexpr int kWnafTableSizeG = 1 << (kWnafWidthG - 2);
constexpr int kWnafMaxDigits = 260;  // 257 for a full scalar, 129 after GLV

Jacobian jnegate(const Jacobian& a) {
    if (a.infinity()) return a;
    return Jacobian{a.x, field().neg(a.y), a.z};
}

/// table[i] = (2i+1)·P for i in [0, size).
void odd_multiples(const Jacobian& p, Jacobian* table, int size) {
    table[0] = p;
    const Jacobian p2 = jdouble(p);
    for (int i = 1; i < size; ++i) table[i] = jadd(table[i - 1], p2);
}

/// Width-w NAF recoding: sum(digits[i] * 2^i) == k, every nonzero digit odd
/// with |digit| < 2^(w-1), at most one nonzero digit per w consecutive
/// positions. Returns the digit count (<= 257 for k < n).
int wnaf_recode(U256 k, int width, std::int16_t digits[kWnafMaxDigits]) {
    int len = 0;
    while (!k.is_zero()) {
        std::int16_t digit = 0;
        if (k.is_odd()) {
            const unsigned window =
                static_cast<unsigned>(k.limbs[0]) & ((1u << width) - 1);
            int d = static_cast<int>(window);
            if (d >= (1 << (width - 1))) d -= 1 << width;
            // k -= d. After the subtraction k is divisible by 2^w, so the
            // next w-1 digits are zero. A negative digit adds |d| < 2^12;
            // k < n < 2^256 - 2^128 keeps the sum below 2^256.
            if (d > 0) {
                u256_sub(k, U256::from_u64(static_cast<std::uint64_t>(d)), k);
            } else {
                const std::uint64_t carry =
                    u256_add(k, U256::from_u64(static_cast<std::uint64_t>(-d)), k);
                EBV_ASSERT(carry == 0);
            }
            digit = static_cast<std::int16_t>(d);
        }
        EBV_ASSERT(len < kWnafMaxDigits);
        digits[len++] = digit;
        // k >>= 1.
        for (int i = 0; i < 4; ++i) {
            k.limbs[i] >>= 1;
            if (i + 1 < 4) k.limbs[i] |= k.limbs[i + 1] << 63;
        }
    }
    return len;
}

/// Odd multiples of G in affine form, computed once.
struct GeneratorWnafTable {
    Affine entries[kWnafTableSizeG];
    GeneratorWnafTable() {
        std::vector<Jacobian> points(kWnafTableSizeG);
        odd_multiples(Jacobian{kGx, kGy, U256::one()}, points.data(), kWnafTableSizeG);
        to_affine_batch(points.data(), entries, points.size());
    }
};

const GeneratorWnafTable& generator_wnaf_table() {
    static const GeneratorWnafTable table;
    return table;
}

// ---- GLV endomorphism (Gallant–Lambert–Vanstone) ------------------------------
// λ·(x, y) = (β·x, y) for the cube roots of unity λ mod n and β mod p, so a
// scalar k splits into k ≡ k1 + k2·λ with |k1|, |k2| < 2^128 and k·Q costs
// half the doublings. The split is libsecp256k1's: c_i = round(k·g_i/2^384),
// k2 = c1·(−b1) + c2·(−b2), k1 = k − k2·λ, for the short lattice basis
// (a1, b1), (a2, b2) of {(x, y) : x + y·λ ≡ 0 (mod n)}.

const U256 kLambda =
    U256::from_hex("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
const U256 kBeta =
    U256::from_hex("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee");
const U256 kMinusB1 =
    U256::from_hex("00000000000000000000000000000000e4437ed6010e88286f547fa90abfe4c3");
const U256 kMinusB2 =
    U256::from_hex("fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c");
const U256 kG1 =
    U256::from_hex("3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031");
const U256 kG2 =
    U256::from_hex("e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71");

/// round(k·g / 2^384).
U256 mul_shift_384(const U256& k, const U256& g) {
    std::uint64_t wide[8];
    u256_mul_wide(k, g, wide);
    U256 out{{wide[6], wide[7], 0, 0}};
    if (wide[5] >> 63) u256_add(out, U256::one(), out);
    return out;
}

/// The signed short representative of r mod n: |value| < 2^128, returned as
/// its magnitude, with `negative` set when r ≡ −magnitude.
U256 short_scalar(const U256& r, bool& negative) {
    negative = r.limbs[2] != 0 || r.limbs[3] != 0;
    const U256 out = negative ? order().neg(r) : r;
    EBV_ASSERT(out.limbs[2] == 0 && out.limbs[3] == 0);
    return out;
}

/// wNAF digits of the signed scalar ±k: digits of k, negated when negative.
int wnaf_signed(const U256& k, bool negative, int width,
                std::int16_t digits[kWnafMaxDigits]) {
    const int len = wnaf_recode(k, width, digits);
    if (negative)
        for (int i = 0; i < len; ++i) digits[i] = static_cast<std::int16_t>(-digits[i]);
    return len;
}

/// Recode k (mod n) as the two wNAF digit strings of its GLV halves:
/// k ≡ Σ d1[i]·2^i + λ·Σ d2[i]·2^i. Each string is at most 129 digits.
void glv_wnaf(const U256& k, int width, std::int16_t d1[kWnafMaxDigits], int& len1,
              std::int16_t d2[kWnafMaxDigits], int& len2) {
    const ModArith& n = order();
    const U256 kr = n.reduce(k);
    const U256 r2 = n.add(n.mul(mul_shift_384(kr, kG1), kMinusB1),
                          n.mul(mul_shift_384(kr, kG2), kMinusB2));
    const U256 r1 = n.sub(kr, n.mul(r2, kLambda));
    bool neg1 = false;
    bool neg2 = false;
    const U256 k1 = short_scalar(r1, neg1);
    const U256 k2 = short_scalar(r2, neg2);
    len1 = wnaf_signed(k1, neg1, width, d1);
    len2 = wnaf_signed(k2, neg2, width, d2);
}

/// The shared core: u1·G + u2·P in Jacobian coordinates (so callers can
/// skip or amortize the affine conversion). With the GLV split this is four
/// interleaved ~128-bit wNAF streams — G, λG, P, λP — over one chain of
/// ~129 doublings. λ of a table entry costs one field multiply (β·x).
Jacobian strauss_double_multiply(const Point& p, const U256& u1, const U256& u2) {
    std::int16_t dg[kWnafMaxDigits];
    std::int16_t dlg[kWnafMaxDigits];
    std::int16_t dp[kWnafMaxDigits];
    std::int16_t dlp[kWnafMaxDigits];
    int lg = 0;
    int llg = 0;
    int lp = 0;
    int llp = 0;
    glv_wnaf(u1, kWnafWidthG, dg, lg, dlg, llg);
    if (!p.infinity) glv_wnaf(u2, kWnafWidthP, dp, lp, dlp, llp);

    const ModArith& f = field();
    Jacobian table_p[kWnafTableSizeP];
    Jacobian table_lp[kWnafTableSizeP];
    if (!p.infinity) {
        odd_multiples(to_jacobian(p), table_p, kWnafTableSizeP);
        for (int i = 0; i < kWnafTableSizeP; ++i)
            table_lp[i] = Jacobian{f.mul(table_p[i].x, kBeta), table_p[i].y, table_p[i].z};
    }
    const Affine* table_g = generator_wnaf_table().entries;

    auto add_g = [&](Jacobian& acc, int digit, bool lambda) {
        Affine entry = table_g[(std::abs(digit) - 1) / 2];
        if (lambda) entry.x = f.mul(entry.x, kBeta);
        acc = jadd_affine(acc, digit > 0 ? entry : negate_affine(entry));
    };
    auto add_p = [](Jacobian& acc, int digit, const Jacobian* table) {
        const Jacobian& entry = table[(std::abs(digit) - 1) / 2];
        acc = jadd(acc, digit > 0 ? entry : jnegate(entry));
    };

    Jacobian acc = Jacobian::at_infinity();
    for (int i = std::max({lg, llg, lp, llp}) - 1; i >= 0; --i) {
        acc = jdouble(acc);
        if (i < lg && dg[i] != 0) add_g(acc, dg[i], false);
        if (i < llg && dlg[i] != 0) add_g(acc, dlg[i], true);
        if (i < lp && dp[i] != 0) add_p(acc, dp[i], table_p);
        if (i < llp && dlp[i] != 0) add_p(acc, dlp[i], table_lp);
    }
    return acc;
}

}  // namespace

const ModArith& field() {
    static const ModArith f(kP);
    return f;
}

const ModArith& order() {
    static const ModArith n(kN);
    return n;
}

const Point& generator() {
    static const Point g{kGx, kGy, false};
    return g;
}

bool Point::on_curve() const {
    if (infinity) return false;
    const ModArith& f = field();
    const U256 lhs = f.sqr(y);
    const U256 rhs = f.add(f.mul(f.sqr(x), x), U256::from_u64(7));
    return lhs == rhs;
}

Point add(const Point& a, const Point& b) {
    return to_affine(jadd(to_jacobian(a), to_jacobian(b)));
}

Point negate(const Point& a) {
    if (a.infinity) return a;
    return Point{a.x, field().neg(a.y), false};
}

Point multiply(const Point& p, const U256& k) {
    const U256 k_reduced = order().reduce(k);
    if (p.infinity || k_reduced.is_zero()) return Point::at_infinity();
    return to_affine(jmultiply(to_jacobian(p), k_reduced));
}

Point multiply_generator(const U256& k) {
    const U256 k_reduced = order().reduce(k);
    if (k_reduced.is_zero()) return Point::at_infinity();
    return to_affine(generator_table().multiply(k_reduced));
}

Point multiply_double_generator(const Point& p, const U256& u1, const U256& u2) {
    return to_affine(strauss_double_multiply(p, u1, u2));
}

std::size_t multiply_double_generator_batch(std::span<const DoubleScalar> jobs,
                                            Point* out) {
    std::vector<Jacobian> raw(jobs.size());
    std::vector<U256> zs;
    zs.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        raw[i] = strauss_double_multiply(jobs[i].p, jobs[i].u1, jobs[i].u2);
        if (!raw[i].infinity()) zs.push_back(raw[i].z);
    }

    field().inverse_batch(zs.data(), zs.size());

    const ModArith& f = field();
    std::size_t next = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (raw[i].infinity()) {
            out[i] = Point::at_infinity();
            continue;
        }
        const U256& zinv = zs[next++];
        const U256 zinv2 = f.sqr(zinv);
        const U256 zinv3 = f.mul(zinv2, zinv);
        out[i] = Point{f.mul(raw[i].x, zinv2), f.mul(raw[i].y, zinv3), false};
    }
    return zs.size() > 1 ? zs.size() - 1 : 0;
}

bool double_generator_x_equals(const Point& p, const U256& u1, const U256& u2,
                               const U256& r) {
    const Jacobian R = strauss_double_multiply(p, u1, u2);
    return !R.infinity() && detail::jacobian_x_mod_n_equals(R.x, R.z, r);
}

namespace detail {

bool jacobian_x_mod_n_equals(const U256& x, const U256& z, const U256& r) {
    // The affine x = X/Z² lies in [0, p), and n < p < 2n, so x mod n == r
    // iff x == r or x == r + n (the latter only possible when r + n < p).
    // Both tests multiply through by Z² instead of inverting it.
    if (!u256_less(r, kN)) return false;
    const ModArith& f = field();
    const U256 zz = f.sqr(z);
    if (f.mul(r, zz) == x) return true;
    U256 r_plus_n;
    if (u256_add(r, kN, r_plus_n) != 0 || !u256_less(r_plus_n, kP)) return false;
    return f.mul(r_plus_n, zz) == x;
}

}  // namespace detail

U256 field_sqrt(const U256& a) {
    // p ≡ 3 (mod 4), so sqrt(a) = a^((p+1)/4) when a is a square. The
    // exponent's binary form is 1^223 0 1^22 0^4 1^2 0^2; x_k = a^(2^k - 1)
    // builds the runs of ones: 1, 2, 3, 6, 9, 11, 22, 44, 88, 176, 220, 223.
    // 253 squarings and 13 multiplications, against pow's ~500 operations.
    const ModArith& f = field();
    auto sqr_n = [&f](U256 v, int times) {
        for (int i = 0; i < times; ++i) v = f.sqr(v);
        return v;
    };
    const U256 x2 = f.mul(f.sqr(a), a);
    const U256 x3 = f.mul(f.sqr(x2), a);
    const U256 x6 = f.mul(sqr_n(x3, 3), x3);
    const U256 x9 = f.mul(sqr_n(x6, 3), x3);
    const U256 x11 = f.mul(sqr_n(x9, 2), x2);
    const U256 x22 = f.mul(sqr_n(x11, 11), x11);
    const U256 x44 = f.mul(sqr_n(x22, 22), x22);
    const U256 x88 = f.mul(sqr_n(x44, 44), x44);
    const U256 x176 = f.mul(sqr_n(x88, 88), x88);
    const U256 x220 = f.mul(sqr_n(x176, 44), x44);
    const U256 x223 = f.mul(sqr_n(x220, 3), x3);
    U256 t = f.mul(sqr_n(x223, 23), x22);  // 1^223 0 1^22
    t = f.mul(sqr_n(t, 6), x2);             // ... 0^4 1^2
    return sqr_n(t, 2);                     // ... 0^2
}

void serialize_compressed(const Point& p, util::MutableByteSpan out33) {
    EBV_EXPECTS(out33.size() == 33);
    EBV_EXPECTS(!p.infinity);
    out33[0] = p.y.is_odd() ? 0x03 : 0x02;
    p.x.to_be_bytes(out33.subspan(1));
}

std::optional<Point> parse_compressed(util::ByteSpan in33) {
    if (in33.size() != 33) return std::nullopt;
    if (in33[0] != 0x02 && in33[0] != 0x03) return std::nullopt;

    const U256 x = U256::from_be_bytes(in33.subspan(1));
    if (!u256_less(x, kP)) return std::nullopt;

    const ModArith& f = field();
    const U256 rhs = f.add(f.mul(f.sqr(x), x), U256::from_u64(7));

    U256 y = field_sqrt(rhs);
    if (f.sqr(y) != rhs) return std::nullopt;  // not a quadratic residue

    const bool want_odd = in33[0] == 0x03;
    if (y.is_odd() != want_odd) y = f.neg(y);

    Point p{x, y, false};
    EBV_ENSURES(p.on_curve());
    return p;
}

}  // namespace ebv::crypto::secp256k1

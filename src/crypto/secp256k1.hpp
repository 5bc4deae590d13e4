// The secp256k1 curve: y² = x³ + 7 over F_p, the curve Bitcoin signs with.
// Points use Jacobian coordinates internally. The generator's multiples are
// precomputed once in affine form and added with mixed additions; the
// verification multiply u1·G + u2·P splits both scalars with the GLV
// endomorphism and interleaves four wNAF streams over one doubling chain.
//
// This implementation is *not* constant-time. It exists so Script
// Validation in the reproduction costs real, representative CPU work; it is
// not hardened for production key handling.
#pragma once

#include <optional>
#include <span>

#include "crypto/u256.hpp"
#include "util/span.hpp"

namespace ebv::crypto::secp256k1 {

/// Field arithmetic mod p = 2^256 - 2^32 - 977.
const ModArith& field();
/// Scalar arithmetic mod the group order n.
const ModArith& order();

/// Affine point; infinity is modelled explicitly.
struct Point {
    U256 x{};
    U256 y{};
    bool infinity = true;

    static Point at_infinity() { return {}; }

    [[nodiscard]] bool on_curve() const;

    friend bool operator==(const Point&, const Point&) = default;
};

/// The generator G.
const Point& generator();

Point add(const Point& a, const Point& b);
Point negate(const Point& a);

/// k * P for arbitrary P.
Point multiply(const Point& p, const U256& k);
/// k * G using the fixed-base table (much faster; used by signing).
Point multiply_generator(const U256& k);

/// u1·G + u2·P in one interleaved Strauss/Shamir wNAF pass (shared double
/// chain, precomputed odd-multiple tables for G and P) — the ECDSA
/// verification workhorse. Scalars are reduced mod n; equals
/// add(multiply_generator(u1), multiply(p, u2)) for every input.
Point multiply_double_generator(const Point& p, const U256& u1, const U256& u2);

/// The ECDSA acceptance test on R = u1·G + u2·P without converting R to
/// affine: true iff R is finite and R.x mod n == r. Same verdict as
/// `!R.infinity && order().reduce(R.x) == r` on multiply_double_generator.
bool double_generator_x_equals(const Point& p, const U256& u1, const U256& u2,
                               const U256& r);

/// One u1·G + u2·P job for the batch form below.
struct DoubleScalar {
    Point p;
    U256 u1;
    U256 u2;
};

/// Batch multiply_double_generator: out[i] = jobs[i].u1·G + jobs[i].u2·P,
/// with every Jacobian→affine conversion sharing one Montgomery-batched
/// field inversion. Returns the number of modular inversions saved relative
/// to per-job calls (0 when fewer than two results are finite points).
std::size_t multiply_double_generator_batch(std::span<const DoubleScalar> jobs,
                                            Point* out);

namespace detail {
/// The projective x-check behind double_generator_x_equals: true iff the
/// affine x of the Jacobian point (X : · : Z), Z ≠ 0, reduced mod n equals r.
/// Any r >= n is rejected. Exposed for tests: the r + n branch needs an x
/// in [n, p), which no real signature reaches.
bool jacobian_x_mod_n_equals(const U256& x, const U256& z, const U256& r);
}  // namespace detail

/// a^((p+1)/4) mod p by a fixed addition chain: a square root of a when
/// a is a quadratic residue (check by squaring the result).
U256 field_sqrt(const U256& a);

/// 33-byte compressed SEC1 encoding (02/03 prefix + big-endian x).
void serialize_compressed(const Point& p, util::MutableByteSpan out33);
/// Decompress; rejects off-curve and malformed encodings.
std::optional<Point> parse_compressed(util::ByteSpan in33);

}  // namespace ebv::crypto::secp256k1

// Memoized pubkey/DER-signature parsing for the script checkers.
//
// Multi-input transactions spending outputs of the same key re-parse the
// identical 33-byte compressed pubkey (a field sqrt to decompress) for every
// input, and OP_CHECKMULTISIG parses each DER signature once per key tried.
// These helpers keep a small thread-local direct-mapped cache keyed on the
// byte content, so repeat parses are a hash + memcmp. Thread-local state
// means no locks on the validation hot path and no false sharing between
// pool workers; values are returned by value (both types are small PODs).
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/ecdsa.hpp"
#include "util/span.hpp"

namespace ebv::crypto {

/// PublicKey::parse with a thread-local memo. Negative results (invalid
/// encodings) are cached too, so malformed scripts cannot thrash the table.
std::optional<PublicKey> parse_public_key_memo(util::ByteSpan bytes);

/// Signature::from_der with a thread-local memo (same contract).
std::optional<Signature> parse_signature_der_memo(util::ByteSpan der);

/// Hit/miss counters for the *calling thread's* tables (tests and metrics).
struct ParseMemoStats {
    std::uint64_t pubkey_hits = 0;
    std::uint64_t pubkey_misses = 0;
    std::uint64_t sig_hits = 0;
    std::uint64_t sig_misses = 0;
};
[[nodiscard]] ParseMemoStats parse_memo_stats();

/// Clears the calling thread's tables and counters (tests).
void parse_memo_reset();

}  // namespace ebv::crypto

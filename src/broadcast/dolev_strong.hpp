// Dolev-Strong authenticated byzantine broadcast, resilient against any
// t < n corruptions given PKI (paper Theorem 5 relies on it).
//
// The sender signs its value; a value is accepted at step s only when it
// carries s valid signatures from distinct participants beginning with the
// sender's. Newly accepted values are countersigned and relayed until step
// t. After step t+1 a party decides the unique accepted value, or bottom if
// it saw zero or several (a provably equivocating sender).
//
// Signatures bind (channel, value, prefix of signers), so chains cannot be
// replayed across concurrently running broadcast instances.
//
// Hot-path structure: chains are decoded in place (the value and the
// signature entries stay views into the frame; only the signer ids are
// copied, into the id scratch the hub lends for the step); chains for an
// already-extracted value are skipped before any cryptography
// (re-verifying them had no observable effect); each surviving signature
// is verified at most once per instance through the VerifiedChainCache;
// the signed message bytes are built in one buffer that re-extends a kept
// (channel, value) prefix instead of re-encoding it per position; and a
// relayed chain is the received one with the count bumped and one
// signature appended, encoded into the hub's step scratch. All of it is
// transcript-preserving: the same messages are sent, byte for byte, as the
// seed implementation.
#pragma once

#include <span>
#include <vector>

#include "broadcast/instance.hpp"
#include "broadcast/verify_cache.hpp"
#include "common/party_set.hpp"
#include "crypto/pki.hpp"

namespace bsm::broadcast {

class DolevStrong final : public Instance {
 public:
  /// `use_verify_cache` exists for the differential tests and the
  /// cold-verify benchmark; production callers leave it on.
  DolevStrong(PartyId sender, std::uint32_t t, Bytes input_if_sender,
              bool use_verify_cache = true);

  void step(InstanceIo& io, std::uint32_t s, const std::vector<net::AppMsg>& inbox) override;

  /// Decides at step t + 1.
  [[nodiscard]] std::uint32_t duration() const override { return t_ + 1; }

  /// Signatures verified cryptographically vs served from the cache
  /// (observability for tests and benchmarks).
  [[nodiscard]] std::uint64_t verifies() const noexcept { return verifies_; }
  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return cache_hits_; }

 private:
  /// Digest signed by the j-th chain member — the value plus all prior
  /// signers — encoded into `w`, replacing its contents.
  [[nodiscard]] static const Bytes& chain_digest(Writer& w, std::uint32_t channel, ByteView value,
                                                 std::span<const PartyId> prior_signers);

  /// Distinct values pooled (and thus verify-cached) per instance. Honest
  /// executions see at most two; the cap bounds the memory and the linear
  /// pool scan under distinct-value chain spam — overflow values fall back
  /// to the seed's transient, uncached verification path.
  static constexpr std::size_t kMaxPooledValues = 64;
  static constexpr std::uint32_t kNotPooled = UINT32_MAX;

  /// Canonical index of `value` in the instance's value pool (digest lookup
  /// disambiguated by full-bytes equality); copies the value in on first
  /// sight. kNotPooled when the pool is full and the value is not already
  /// in it.
  [[nodiscard]] std::uint32_t pool_index(ByteView value);

  /// Encode the message signed at position j of a chain over the pooled
  /// value: the kept (channel, value) prefix re-extended in place
  /// (Writer::truncate) with u32_vec(signers[0..j)). Returns the buffer.
  [[nodiscard]] const Bytes& signed_msg(std::uint32_t channel, std::uint32_t value_idx,
                                        std::span<const PartyId> signers, std::uint32_t j);

  /// Record an accepted value by its pool index. A value spam kept out of
  /// the full pool is pooled past the cap: at most two are ever accepted.
  void extract(std::uint32_t value_idx, ByteView value);

  PartyId sender_;
  std::uint32_t t_;
  Bytes input_;
  bool use_verify_cache_;
  /// Accepted values, as pool indices; capped at 2 (equivocation proof).
  std::uint32_t extracted_[2] = {};
  std::uint32_t extracted_count_ = 0;

  struct PooledValue {
    std::uint64_t digest = 0;
    Bytes value;
  };
  /// Values an honest run pools: the sender's, plus one more when it
  /// equivocates.
  static constexpr std::size_t kPoolFirstEntries = 2;
  std::vector<PooledValue> pool_;

  VerifiedChainCache cache_;
  core::PartySet distinct_;  ///< per-message scratch
  Writer msg_scratch_;       ///< signed-message buffer: a value's prefix + extension
  std::uint32_t scratch_value_ = kNotPooled;  ///< value whose prefix msg_scratch_ holds
  std::size_t scratch_prefix_len_ = 0;
  std::uint64_t verifies_ = 0;
  std::uint64_t cache_hits_ = 0;
};

}  // namespace bsm::broadcast

#include "broadcast/dolev_strong.hpp"

#include <algorithm>

#include "broadcast/wire.hpp"
#include "common/hash.hpp"

namespace bsm::broadcast {

namespace {

struct ChainMsg {
  Bytes value;
  std::vector<PartyId> signers;
  std::vector<crypto::Signature> sigs;
};

[[nodiscard]] Bytes encode_chain(const Bytes& value, const std::vector<PartyId>& signers,
                                 const std::vector<crypto::Signature>& sigs) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgKind::Chain));
  w.bytes(value);
  w.u32(static_cast<std::uint32_t>(signers.size()));
  for (std::size_t i = 0; i < signers.size(); ++i) {
    w.u32(signers[i]);
    sigs[i].encode(w);
  }
  return w.take();
}

/// decode_chain of the seed implementation, into reused storage: accepts
/// and rejects exactly the same inputs, allocates only on capacity growth.
[[nodiscard]] bool decode_chain_into(ByteView body, ChainMsg& m) {
  Reader r(body);
  if (r.u8() != static_cast<std::uint8_t>(MsgKind::Chain)) return false;
  const auto value = r.bytes_view();
  const std::uint32_t len = r.u32();
  if (!r.ok() || len > 4096) return false;
  m.signers.clear();
  m.sigs.clear();
  for (std::uint32_t i = 0; i < len; ++i) {
    m.signers.push_back(r.u32());
    m.sigs.push_back(crypto::Signature::decode(r));
  }
  if (!r.done()) return false;
  m.value.assign(value.begin(), value.end());
  return true;
}

}  // namespace

DolevStrong::DolevStrong(PartyId sender, std::uint32_t t, Bytes input_if_sender,
                         bool use_verify_cache)
    : sender_(sender),
      t_(t),
      input_(std::move(input_if_sender)),
      use_verify_cache_(use_verify_cache) {}

Bytes DolevStrong::chain_digest(std::uint32_t channel, const Bytes& value,
                                const std::vector<PartyId>& prior_signers) {
  Writer w;
  w.str("dolev-strong");
  w.u32(channel);
  w.bytes(value);
  w.u32_vec(prior_signers);
  return w.take();
}

std::uint32_t DolevStrong::pool_index(std::uint32_t channel, const Bytes& value) {
  const std::uint64_t digest = fnv1a64(value);
  for (std::uint32_t i = 0; i < pool_.size(); ++i) {
    if (pool_[i].digest == digest && pool_[i].value == value) return i;
  }
  if (pool_.size() >= kMaxPooledValues) return kNotPooled;  // spam: don't retain
  Writer w;
  w.str("dolev-strong");
  w.u32(channel);
  w.bytes(value);
  pool_.push_back(PooledValue{digest, value, w.take()});
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

const Bytes& DolevStrong::signed_msg(std::uint32_t value_idx,
                                     const std::vector<PartyId>& signers, std::uint32_t j) {
  // Byte-identical to chain_digest(channel, value, signers[0..j)): the
  // pooled prefix already holds "dolev-strong" | channel | value, and
  // u32_vec is a count followed by the elements. The scratch keeps the
  // prefix of the last value in place and only rewrites the extension.
  if (scratch_value_ != value_idx) {
    msg_scratch_.truncate(0);
    msg_scratch_.raw(pool_[value_idx].prefix);
    scratch_prefix_len_ = msg_scratch_.size();
    scratch_value_ = value_idx;
  }
  msg_scratch_.truncate(scratch_prefix_len_);
  msg_scratch_.u32(j);
  for (std::uint32_t i = 0; i < j; ++i) msg_scratch_.u32(signers[i]);
  return msg_scratch_.data();
}

void DolevStrong::step(InstanceIo& io, std::uint32_t s, const std::vector<net::AppMsg>& inbox) {
  if (s == 0) {
    if (io.self() == sender_) {
      extracted_.push_back(input_);
      const auto sig = io.signer().sign(chain_digest(io.channel(), input_, {}));
      io.broadcast(encode_chain(input_, {sender_}, {sig}));
    }
    return;
  }

  if (participants_.empty()) {
    for (PartyId p : io.participants()) participants_.insert(p);
  }
  const auto already_extracted = [&](const Bytes& value) {
    return std::any_of(extracted_.begin(), extracted_.end(),
                       [&](const Bytes& v) { return v == value; });
  };

  ChainMsg chain;  // decode storage reused across the inbox
  for (const auto& msg : inbox) {
    if (extracted_.size() >= 2) break;  // equivocation already proven
    if (!decode_chain_into(msg.body, chain)) continue;
    // A chain is valid at step s iff it has >= s distinct participant
    // signatures starting with the sender's, each over the right digest.
    if (chain.signers.size() < s) continue;
    if (chain.signers.front() != sender_) continue;
    // A chain for an already-extracted value cannot change any state:
    // re-verifying it was pure waste in the seed implementation, so the
    // check is hoisted above the cryptography.
    if (already_extracted(chain.value)) continue;

    const std::uint32_t value_idx = pool_index(io.channel(), chain.value);
    const bool pooled = value_idx != kNotPooled;
    std::uint64_t d = pooled
                          ? VerifiedChainCache::chain_seed(io.channel(), pool_[value_idx].digest)
                          : 0;
    distinct_.clear();
    bool valid = true;
    for (std::size_t j = 0; j < chain.signers.size() && valid; ++j) {
      const PartyId signer = chain.signers[j];
      if (!participants_.contains(signer) || distinct_.contains(signer)) {
        valid = false;
        break;
      }
      distinct_.insert(signer);
      const auto& sig = chain.sigs[j];
      if (!pooled) {
        // Pool overflow (distinct-value spam): the seed's transient,
        // uncached path — same verification, nothing retained.
        ++verifies_;
        const std::vector<PartyId> prior(chain.signers.begin(),
                                         chain.signers.begin() + static_cast<std::ptrdiff_t>(j));
        valid = io.pki().verify(signer, chain_digest(io.channel(), chain.value, prior), sig);
        continue;
      }
      d = VerifiedChainCache::extend(d, signer);
      const std::span<const PartyId> prefix(chain.signers.data(), j + 1);
      if (use_verify_cache_) {
        const std::uint64_t key = VerifiedChainCache::key_digest(d, sig);
        if (const bool* hit = cache_.find(key, value_idx, prefix, sig)) {
          ++cache_hits_;
          valid = *hit;
        } else {
          ++verifies_;
          valid = io.pki().verify(signer,
                                  signed_msg(value_idx, chain.signers,
                                             static_cast<std::uint32_t>(j)),
                                  sig);
          cache_.insert(key, value_idx, prefix, sig, valid);
        }
      } else {
        ++verifies_;
        valid = io.pki().verify(
            signer, signed_msg(value_idx, chain.signers, static_cast<std::uint32_t>(j)), sig);
      }
    }
    if (!valid) continue;

    extracted_.push_back(chain.value);
    if (s <= t_ && !distinct_.contains(io.self())) {
      // Relay = the received frame with the count bumped and our
      // countersignature appended; byte-identical to re-encoding the
      // extended chain, without touching the value or existing entries.
      // The body views this round's delivery, so it is copied into a
      // buffer the instance reuses.
      const auto sig = io.signer().sign(
          pooled ? signed_msg(value_idx, chain.signers,
                              static_cast<std::uint32_t>(chain.signers.size()))
                 : chain_digest(io.channel(), chain.value, chain.signers));
      relay_.assign(msg.body.begin(), msg.body.end());
      const std::size_t count_off = 1 + 4 + chain.value.size();
      store_u32_le(relay_, count_off, static_cast<std::uint32_t>(chain.signers.size()) + 1);
      append_u32_le(relay_, io.self());
      append_u32_le(relay_, sig.signer);
      append_u64_le(relay_, sig.tag);
      io.broadcast(relay_);
    }
  }

  if (s == duration()) {
    if (extracted_.size() == 1) {
      decide(extracted_.front());
    } else {
      decide(std::nullopt);  // no value, or a provably equivocating sender
    }
  }
}

}  // namespace bsm::broadcast

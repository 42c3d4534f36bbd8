#include "broadcast/dolev_strong.hpp"

#include <algorithm>

#include "broadcast/wire.hpp"
#include "common/hash.hpp"

namespace bsm::broadcast {

namespace {

/// A Chain frame decoded in place: u8 kind | bytes value | u32 count |
/// count x (u32 signer, Signature). The value and the entries stay views
/// into the frame, valid while the message body is.
struct ChainView {
  static constexpr std::size_t kEntry = 4 + 4 + 8;  ///< signer + Signature{signer, tag}

  ByteView value;
  ByteView entries;
  std::uint32_t count = 0;

  [[nodiscard]] crypto::Signature sig(std::size_t j) const {
    Reader r(entries.subspan(j * kEntry + 4, kEntry - 4));
    return crypto::Signature::decode(r);
  }
};

/// decode_chain of the seed implementation, in place: accepts and rejects
/// exactly the same inputs (every entry present, no trailing byte). The
/// signer ids are copied into `signers`, so the verify cache and the
/// signed-message encoder read them as one span.
[[nodiscard]] bool decode_chain(ByteView body, ChainView& chain, std::vector<PartyId>& signers) {
  Reader r(body);
  if (r.u8() != static_cast<std::uint8_t>(MsgKind::Chain)) return false;
  chain.value = r.bytes_view();
  const std::uint32_t len = r.u32();
  if (!r.ok() || len > 4096) return false;
  const std::size_t header = 1 + 4 + chain.value.size() + 4;
  if (body.size() - header != std::size_t{len} * ChainView::kEntry) return false;
  chain.entries = body.subspan(header);
  chain.count = len;
  signers.clear();
  Reader entries(chain.entries);
  for (std::uint32_t i = 0; i < len; ++i) {
    signers.push_back(entries.u32());
    (void)crypto::Signature::decode(entries);  // read in place by ChainView::sig
  }
  return true;
}

/// Encode into `w` the Chain frame over `value` whose entries are
/// `entries` (received, copied as they are) followed by `signer`'s
/// signature, `count` entries in all.
[[nodiscard]] const Bytes& encode_chain(Writer& w, ByteView value, std::uint32_t count,
                                        ByteView entries, PartyId signer,
                                        const crypto::Signature& sig) {
  w.truncate(0);
  w.u8(static_cast<std::uint8_t>(MsgKind::Chain));
  w.bytes(value);
  w.u32(count);
  w.raw(entries);
  w.u32(signer);
  sig.encode(w);
  return w.data();
}

/// The start of every signed message: "dolev-strong" | channel | value.
void encode_prefix(Writer& w, std::uint32_t channel, ByteView value) {
  w.str("dolev-strong");
  w.u32(channel);
  w.bytes(value);
}

/// The rest: the prior signers, as Writer::u32_vec would encode them.
void encode_signers(Writer& w, std::span<const PartyId> signers) {
  w.u32(static_cast<std::uint32_t>(signers.size()));
  for (const PartyId p : signers) w.u32(p);
}

}  // namespace

DolevStrong::DolevStrong(PartyId sender, std::uint32_t t, Bytes input_if_sender,
                         bool use_verify_cache)
    : sender_(sender),
      t_(t),
      input_(std::move(input_if_sender)),
      use_verify_cache_(use_verify_cache) {}

const Bytes& DolevStrong::chain_digest(Writer& w, std::uint32_t channel, ByteView value,
                                       std::span<const PartyId> prior_signers) {
  w.truncate(0);
  encode_prefix(w, channel, value);
  encode_signers(w, prior_signers);
  return w.data();
}

std::uint32_t DolevStrong::pool_index(ByteView value) {
  const std::uint64_t digest = fnv1a64(value);
  for (std::uint32_t i = 0; i < pool_.size(); ++i) {
    if (pool_[i].digest == digest && std::ranges::equal(pool_[i].value, value)) return i;
  }
  if (pool_.size() >= kMaxPooledValues) return kNotPooled;  // spam: don't retain
  if (pool_.empty()) pool_.reserve(kPoolFirstEntries);
  pool_.push_back(PooledValue{digest, Bytes(value.begin(), value.end())});
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void DolevStrong::extract(std::uint32_t value_idx, ByteView value) {
  if (value_idx == kNotPooled) {
    value_idx = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(PooledValue{fnv1a64(value), Bytes(value.begin(), value.end())});
  }
  extracted_[extracted_count_++] = value_idx;
}

const Bytes& DolevStrong::signed_msg(std::uint32_t channel, std::uint32_t value_idx,
                                     std::span<const PartyId> signers, std::uint32_t j) {
  // Byte-identical to chain_digest(channel, value, signers[0..j)). The
  // buffer keeps the prefix of the last value in place and only rewrites
  // the extension.
  if (scratch_value_ != value_idx) {
    msg_scratch_.truncate(0);
    encode_prefix(msg_scratch_, channel, pool_[value_idx].value);
    scratch_prefix_len_ = msg_scratch_.size();
    scratch_value_ = value_idx;
  }
  msg_scratch_.truncate(scratch_prefix_len_);
  encode_signers(msg_scratch_, signers.first(j));
  return msg_scratch_.data();
}

void DolevStrong::step(InstanceIo& io, std::uint32_t s, const std::vector<net::AppMsg>& inbox) {
  Writer& scratch = io.scratch();
  if (s == 0) {
    if (io.self() == sender_) {
      extract(pool_index(input_), input_);
      const auto sig = io.signer().sign(chain_digest(scratch, io.channel(), input_, {}));
      io.broadcast(encode_chain(scratch, input_, 1, {}, sender_, sig));
    }
    return;
  }

  const core::PartySet& participants = io.participant_mask();
  const auto already_extracted = [&](ByteView value) {
    return std::any_of(extracted_, extracted_ + extracted_count_, [&](std::uint32_t idx) {
      return std::ranges::equal(pool_[idx].value, value);
    });
  };

  ChainView chain;
  std::vector<PartyId>& signers = io.id_scratch();
  for (const auto& msg : inbox) {
    if (extracted_count_ >= 2) break;  // equivocation already proven
    if (!decode_chain(msg.body, chain, signers)) continue;
    // A chain is valid at step s iff it has >= s distinct participant
    // signatures starting with the sender's, each over the right digest.
    if (chain.count < s) continue;
    if (signers.front() != sender_) continue;
    // A chain for an already-extracted value cannot change any state:
    // re-verifying it was pure waste in the seed implementation, so the
    // check is hoisted above the cryptography.
    if (already_extracted(chain.value)) continue;

    const std::uint32_t value_idx = pool_index(chain.value);
    const bool pooled = value_idx != kNotPooled;
    std::uint64_t d = pooled
                          ? VerifiedChainCache::chain_seed(io.channel(), pool_[value_idx].digest)
                          : 0;
    distinct_.clear();
    bool valid = true;
    for (std::uint32_t j = 0; j < chain.count && valid; ++j) {
      const PartyId signer = signers[j];
      if (!participants.contains(signer) || distinct_.contains(signer)) {
        valid = false;
        break;
      }
      distinct_.insert(signer);
      const crypto::Signature sig = chain.sig(j);
      if (!pooled) {
        // Pool overflow (distinct-value spam): the seed's transient,
        // uncached path — same verification, nothing retained.
        ++verifies_;
        valid = io.pki().verify(
            signer, chain_digest(scratch, io.channel(), chain.value, std::span(signers).first(j)),
            sig);
        continue;
      }
      d = VerifiedChainCache::extend(d, signer);
      const std::span<const PartyId> prefix(signers.data(), j + 1);
      if (use_verify_cache_) {
        const std::uint64_t key = VerifiedChainCache::key_digest(d, sig);
        if (const bool* hit = cache_.find(key, value_idx, prefix, sig)) {
          ++cache_hits_;
          valid = *hit;
        } else {
          ++verifies_;
          valid = io.pki().verify(signer, signed_msg(io.channel(), value_idx, signers, j), sig);
          cache_.insert(key, value_idx, prefix, sig, valid);
        }
      } else {
        ++verifies_;
        valid = io.pki().verify(signer, signed_msg(io.channel(), value_idx, signers, j), sig);
      }
    }
    if (!valid) continue;

    extract(value_idx, chain.value);
    if (s <= t_ && !distinct_.contains(io.self())) {
      // Relay = the received chain with the count bumped and our
      // countersignature appended: byte-identical to re-encoding the
      // extended chain, with the existing entries copied as they are.
      const auto sig = io.signer().sign(
          pooled ? signed_msg(io.channel(), value_idx, signers, chain.count)
                 : chain_digest(scratch, io.channel(), chain.value, signers));
      io.broadcast(encode_chain(scratch, chain.value, chain.count + 1, chain.entries, io.self(),
                                sig));
    }
  }

  if (s == duration()) {
    if (extracted_count_ == 1) {
      decide(std::move(pool_[extracted_[0]].value));  // the instance never steps again
    } else {
      decide(std::nullopt);  // no value, or a provably equivocating sender
    }
  }
}

}  // namespace bsm::broadcast

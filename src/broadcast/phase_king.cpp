#include "broadcast/phase_king.hpp"

#include "broadcast/wire.hpp"

namespace bsm::broadcast {

PhaseKingBA::PhaseKingBA(Bytes input, std::shared_ptr<const Quorums> quorums)
    : v_(std::move(input)), quorums_(std::move(quorums)) {
  require(quorums_ != nullptr, "PhaseKingBA: quorums required");
}

PartyId PhaseKingBA::king_of(const std::vector<PartyId>& participants, std::uint32_t phase) {
  require(!participants.empty(), "PhaseKingBA: no participants");
  return participants[phase % participants.size()];
}

void PhaseKingBA::step(InstanceIo& io, std::uint32_t s, const std::vector<net::AppMsg>& inbox) {
  const std::uint32_t sub = s % 3;

  if (sub == 0) {
    if (s > 0) {
      // Apply the previous phase's king value if our own support was weak.
      const PartyId king = king_of(io.participants(), s / 3 - 1);
      for (const auto& msg : inbox) {
        if (msg.from != king) continue;
        const auto kv = decode_kv_view(msg.body);
        if (!kv || kv->kind != MsgKind::King) continue;
        if (!strong_) v_.assign(kv->value.begin(), kv->value.end());
        break;
      }
      // A missing king message (omission, or silent byzantine king) leaves
      // v_ unchanged — the protocol still terminates on schedule.
    }
    if (s == duration()) {
      decide(v_);
      return;
    }
    io.broadcast(encode_kv(io.scratch(), MsgKind::Value, v_));
    return;
  }

  if (sub == 1) {
    // Propose the (unique, given the quorum condition) value whose senders'
    // complement could be entirely corrupt.
    tally_.build(inbox, MsgKind::Value);
    for (const std::uint32_t idx : tally_.ordered()) {
      const auto& bucket = tally_.bucket(idx);
      if (quorums_->complement_corruptible(bucket.senders)) {
        io.broadcast(encode_kv(io.scratch(), MsgKind::Propose, bucket.value));
        break;
      }
    }
    return;
  }

  // sub == 2: adopt a proposal that must include an honest proposer; note
  // whether its support was strong enough to ignore the king.
  strong_ = false;
  tally_.build(inbox, MsgKind::Propose);
  for (const std::uint32_t idx : tally_.ordered()) {
    const auto& bucket = tally_.bucket(idx);
    if (quorums_->has_honest(bucket.senders)) {
      v_ = bucket.value;
      strong_ = quorums_->complement_corruptible(bucket.senders);
      break;
    }
  }
  if (io.self() == king_of(io.participants(), s / 3)) {
    io.broadcast(encode_kv(io.scratch(), MsgKind::King, v_));
  }
}

}  // namespace bsm::broadcast

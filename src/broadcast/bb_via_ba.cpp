#include "broadcast/bb_via_ba.hpp"

#include "broadcast/wire.hpp"

namespace bsm::broadcast {

BBviaBA::BBviaBA(PartyId sender, Bytes input_if_sender, Bytes default_value,
                 std::uint32_t ba_duration, BaFactory factory)
    : sender_(sender),
      input_(std::move(input_if_sender)),
      default_value_(std::move(default_value)),
      ba_duration_(ba_duration),
      factory_(std::move(factory)) {
  require(factory_ != nullptr, "BBviaBA: factory required");
}

void BBviaBA::step(InstanceIo& io, std::uint32_t s, const std::vector<net::AppMsg>& inbox) {
  if (s == 0) {
    if (io.self() == sender_) io.broadcast(encode_kv(io.scratch(), MsgKind::Input, input_));
    return;
  }

  if (s == 1) {
    // Adopt the sender's value (first well-formed Input message) or the
    // publicly known default, then join the agreement.
    Bytes value = default_value_;
    for (const auto& msg : inbox) {
      if (msg.from != sender_) continue;
      const auto kv = decode_kv_view(msg.body);
      if (kv && kv->kind == MsgKind::Input) {
        value.assign(kv->value.begin(), kv->value.end());
        break;
      }
    }
    ba_ = factory_(std::move(value));
    require(ba_->duration() == ba_duration_, "BBviaBA: factory duration mismatch");
  }

  require(ba_ != nullptr, "BBviaBA: agreement missing");
  ba_->step(io, s - 1, inbox);
  if (ba_->done()) decide(ba_->output());
}

}  // namespace bsm::broadcast

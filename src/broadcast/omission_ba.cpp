#include "broadcast/omission_ba.hpp"

#include "broadcast/wire.hpp"

namespace bsm::broadcast {

OmissionBA::OmissionBA(Bytes input, std::shared_ptr<const Quorums> quorums)
    : inner_(std::move(input), quorums), quorums_(std::move(quorums)) {}

void OmissionBA::step(InstanceIo& io, std::uint32_t s, const std::vector<net::AppMsg>& inbox) {
  if (s <= inner_.duration()) {
    inner_.step(io, s, inbox);
    if (s == inner_.duration()) {
      // Inner Pi_King just decided; echo its output to everyone.
      require(inner_.done() && inner_.output().has_value(),
              "OmissionBA: inner phase-king must decide a value");
      io.broadcast(encode_kv(io.scratch(), MsgKind::Final, *inner_.output()));
    }
    return;
  }

  // Closing step: accept z iff the non-echoers could all be corrupt.
  tally_.build(inbox, MsgKind::Final);
  for (const std::uint32_t idx : tally_.ordered()) {
    const auto& bucket = tally_.bucket(idx);
    if (quorums_->complement_corruptible(bucket.senders)) {
      decide(bucket.value);
      return;
    }
  }
  decide(std::nullopt);  // bottom
}

}  // namespace bsm::broadcast

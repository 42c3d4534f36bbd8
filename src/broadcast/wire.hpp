// Message kinds shared by the agreement/broadcast instances on a channel.
#pragma once

#include <cstdint>
#include <optional>

#include "common/codec.hpp"
#include "common/types.hpp"

namespace bsm::broadcast {

enum class MsgKind : std::uint8_t {
  Value = 1,    ///< phase-king round-1 value exchange
  Propose = 2,  ///< phase-king round-2 proposal
  King = 3,     ///< phase-king round-3 king value
  Final = 4,    ///< Pi_BA closing echo round
  Input = 5,    ///< BB sender's initial dissemination
  Chain = 6,    ///< Dolev-Strong signed value chain
};

/// Encode {kind, value} — the common shape of phase-king traffic — into
/// `scratch`, replacing its contents. The result views `scratch`, so it is
/// valid until the scratch is next written; a caller that sends it right
/// away reuses one buffer for every message.
inline ByteView encode_kv(Writer& scratch, MsgKind kind, ByteView value) {
  scratch.truncate(0);
  scratch.u8(static_cast<std::uint8_t>(kind));
  scratch.bytes(value);
  return scratch.data();
}

struct KvMsg {
  MsgKind kind;
  Bytes value;
};

/// Decode {kind, value}; nullopt on malformed input.
[[nodiscard]] inline std::optional<KvMsg> decode_kv(ByteView body) {
  Reader r(body);
  const auto kind = r.u8();
  Bytes value = r.bytes();
  if (!r.done() || kind < 1 || kind > 6) return std::nullopt;
  return KvMsg{static_cast<MsgKind>(kind), std::move(value)};
}

/// Zero-copy variant of KvMsg: `value` borrows from the decoded body, so it
/// is valid only while that buffer is alive and unmodified. The instances
/// use this to read messages without one allocation per message.
struct KvView {
  MsgKind kind;
  ByteView value;
};

/// Decode {kind, value} as a view; accepts and rejects exactly the same
/// inputs as decode_kv (the tally differential tests rely on it).
[[nodiscard]] inline std::optional<KvView> decode_kv_view(ByteView body) {
  Reader r(body);
  const auto kind = r.u8();
  const auto value = r.bytes_view();
  if (!r.done() || kind < 1 || kind > 6) return std::nullopt;
  return KvView{static_cast<MsgKind>(kind), value};
}

}  // namespace bsm::broadcast

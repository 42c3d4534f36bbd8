// Virtual-channel simulation between parties that share no physical channel
// — the paper's Lemmas 6, 8, and 10.
//
//  - UnauthMajority (Lemma 6): the sender hands the message to every party
//    on the opposite side; each honest one forwards it; the receiver accepts
//    a message once a strict majority (> k/2) of distinct forwarders vouch
//    for byte-identical content. Sound while the relay side has an honest
//    majority; adds exactly 2 rounds (2 * Delta).
//  - AuthSigned (Lemma 8): the sender signs (src, dst, id, body); relays
//    forward; the receiver accepts the first copy with a valid signature.
//    Sound while at least one relay is honest.
//  - AuthTimed (Lemma 10): like AuthSigned, but the signed payload carries
//    the sending round tau and the receiver only accepts within 2 * Delta of
//    tau. If every relay is byzantine the message may be *omitted*, but a
//    late or replayed delivery is never accepted — this is the
//    "fully-connected network with omissions" used by Pi_bSM.
//
// The router is symmetric infrastructure: every honest process routes its
// physical inbox through `route`, which both performs its forwarding duties
// for others and surfaces the application-level messages addressed to it.
//
// The message path allocates nothing in steady state. `route` returns views
// into the envelopes' payload bytes, collected in a buffer the router owns;
// every outgoing frame is encoded into a scratch buffer the router reuses
// (Context::send copies the bytes before it returns). A frame bound for
// several parties — a relay request to every relay, a broadcast's direct
// frame — leaves as one Context::multicast. Relayed (src, id) pairs live
// in one open-addressed table: a slot starts pending, collects majority
// votes on pooled candidates, and turns accepted in place, where it stays
// as the replay guard.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/codec.hpp"
#include "common/hash.hpp"
#include "common/party_set.hpp"
#include "common/types.hpp"
#include "net/process.hpp"

namespace bsm::net {

enum class RelayMode : std::uint8_t { Direct, UnauthMajority, AuthSigned, AuthTimed };

/// An application-level message after transport decoding. `body` is a view
/// with the lifetime of the Envelope::payload it was decoded from: it is
/// valid for the rest of the round the envelope was delivered in, and a
/// consumer that keeps a message past that round copies the bytes. A view
/// of a temporary would dangle at once, so constructing an AppMsg from an
/// rvalue Bytes does not compile.
struct AppMsg {
  AppMsg(PartyId sender, ByteView bytes) noexcept : from(sender), body(bytes) {}
  AppMsg(PartyId, Bytes&&) = delete;

  PartyId from = kNobody;
  ByteView body;
};

class RelayRouter {
 public:
  explicit RelayRouter(RelayMode mode) noexcept : mode_(mode) {}

  [[nodiscard]] RelayMode mode() const noexcept { return mode_; }

  /// Send `body` to `to`, directly if a channel exists, else via relays on
  /// the opposite side. Virtual sends take 2 rounds instead of 1.
  void send(Context& ctx, PartyId to, ByteView body);

  /// Send `body` to every recipient in order. Byte- and id-identical to
  /// calling send() per recipient, but the direct-transport frame is
  /// encoded once for the whole broadcast, and each run of consecutive
  /// directly connected recipients is one Context::multicast.
  void broadcast(Context& ctx, std::span<const PartyId> recipients, ByteView body);

  /// Decode a physical inbox: forward relay requests addressed to others,
  /// apply the acceptance rule for relayed messages addressed to us, and
  /// return all application messages delivered this round. The span views
  /// a buffer the router owns and is valid until the next route() call;
  /// each body views the payload of the envelope that delivered it.
  [[nodiscard]] std::span<const AppMsg> route(Context& ctx, Inbox inbox);

  /// Number of relayed messages this router refused (bad signature, stale
  /// timestamp, replay, sub-majority support). Exposed for tests/benches.
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// One relayed (src, id): pending while `candidates` heads a list of
  /// bodies collecting votes, accepted once one of them wins (or, in the
  /// signed modes, once a valid copy arrives). An accepted slot stays as
  /// the replay guard. `src == kNobody` marks an empty slot.
  struct Slot {
    PartyId src = kNobody;
    bool accepted = false;
    std::uint32_t candidates = kNone;  ///< first Candidate in pool_
    std::uint64_t id = 0;
  };
  /// One distinct body forwarded for a pending (src, id), with the relays
  /// that vouched for exactly these bytes. It owns its bytes, because the
  /// votes may complete in a later round. Candidates are pooled: an
  /// accepted slot's list goes back on the free list, buffers kept.
  struct Candidate {
    Bytes body;
    core::PartySet voters;
    std::uint32_t next = kNone;
  };

  /// The slot holding (src, id), or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(PartyId src, std::uint64_t id) const noexcept;
  /// Fill the empty slot `i` with (src, id); grows the table at half load.
  Slot& claim(std::size_t i, PartyId src, std::uint64_t id);
  /// A pooled candidate holding a copy of `body`, with no voters.
  [[nodiscard]] std::uint32_t new_candidate(ByteView body);

  /// The signed tuple (src, dst, id, tau, body), encoded into signed_.
  [[nodiscard]] const Bytes& signed_content(PartyId src, PartyId dst, std::uint64_t id, Round tau,
                                            ByteView body);

  RelayMode mode_;
  std::uint64_t next_id_ = 0;
  // (src, id) replay guard and vote accumulator. Probed once per forwarded
  // copy and never iterated, so slot order cannot leak into behavior.
  // Distinct bodies per (src, id) are adversarial and rare, so each
  // pending slot's candidates are a short list matched by full bytes.
  std::vector<Slot> slots_;  ///< open-addressed, power-of-two sized
  std::size_t used_ = 0;     ///< occupied slots
  std::vector<Candidate> pool_;
  std::uint32_t free_ = kNone;  ///< head of the free candidate list
  std::uint64_t rejected_ = 0;
  // Scratch buffers reused across calls. Context::send copies a frame into
  // the round's payload arena, and Pki::verify reads signed content only
  // during the call, so none needs its own allocation per message.
  std::vector<AppMsg> out_;  ///< route()'s result
  Writer direct_;            ///< direct frames (one per broadcast)
  Writer request_;           ///< relay-request frames
  Writer signed_;
  Bytes forward_;
  // Common-neighbour lists are a pure function of (self, to, topology), so
  // each router memoizes them: the send loop walked every party with two
  // adjacency probes per candidate, per message. Ascending id order is
  // preserved exactly.
  std::vector<std::vector<PartyId>> relays_to_;  ///< indexed by destination
};

}  // namespace bsm::net

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
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/codec.hpp"
#include "common/hash.hpp"
#include "common/party_set.hpp"
#include "common/types.hpp"
#include "net/process.hpp"

namespace bsm::net {

enum class RelayMode : std::uint8_t { Direct, UnauthMajority, AuthSigned, AuthTimed };

/// An application-level message after transport decoding.
struct AppMsg {
  PartyId from = kNobody;
  Bytes body;
};

class RelayRouter {
 public:
  explicit RelayRouter(RelayMode mode) noexcept : mode_(mode) {}

  [[nodiscard]] RelayMode mode() const noexcept { return mode_; }

  /// Send `body` to `to`, directly if a channel exists, else via relays on
  /// the opposite side. Virtual sends take 2 rounds instead of 1.
  void send(Context& ctx, PartyId to, const Bytes& body);

  /// Send `body` to every recipient in order. Byte- and id-identical to
  /// calling send() per recipient, but the direct-transport frame is
  /// encoded once for the whole broadcast instead of once per recipient.
  void broadcast(Context& ctx, const std::vector<PartyId>& recipients, const Bytes& body);

  /// Decode a physical inbox: forward relay requests addressed to others,
  /// apply the acceptance rule for relayed messages addressed to us, and
  /// return all application messages delivered this round.
  [[nodiscard]] std::vector<AppMsg> route(Context& ctx, Inbox inbox);

  /// Number of relayed messages this router refused (bad signature, stale
  /// timestamp, replay, sub-majority support). Exposed for tests/benches.
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }

 private:
  struct MajorityKey {
    PartyId src;
    std::uint64_t id;
    [[nodiscard]] bool operator==(const MajorityKey&) const = default;
  };
  struct MajorityKeyHash {
    [[nodiscard]] std::size_t operator()(const MajorityKey& k) const noexcept {
      return static_cast<std::size_t>(hash_combine(k.src, k.id));
    }
  };
  /// One distinct body forwarded for a (src, id), with the relays that
  /// vouched for exactly these bytes.
  struct Candidate {
    Bytes body;
    core::PartySet voters;
  };

  /// The signed tuple (src, dst, id, tau, body), encoded into signed_.
  [[nodiscard]] const Bytes& signed_content(PartyId src, PartyId dst, std::uint64_t id, Round tau,
                                            ByteView body);

  RelayMode mode_;
  std::uint64_t next_id_ = 0;
  // (src, id) replay guard and vote accumulator: hash tables — both are
  // probed once per forwarded copy and never iterated, so bucket order
  // cannot leak into behavior. Distinct bodies per (src, id) are
  // adversarial and rare, so each bucket is a short list matched by full
  // bytes.
  std::unordered_set<MajorityKey, MajorityKeyHash> accepted_;
  std::unordered_map<MajorityKey, std::vector<Candidate>, MajorityKeyHash> pending_;
  std::uint64_t rejected_ = 0;
  // Scratch buffers reused across calls. Context::send copies a forward
  // frame into the round's payload arena, and Pki::verify reads signed
  // content only during the call, so neither needs its own allocation.
  Writer signed_;
  Bytes forward_;
  // Common-neighbour lists are a pure function of (self, to, topology), so
  // each router memoizes them: the send loop walked every party with two
  // adjacency probes per candidate, per message. Ascending id order is
  // preserved exactly.
  std::vector<std::vector<PartyId>> relays_to_;  ///< indexed by destination
};

}  // namespace bsm::net

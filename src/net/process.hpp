// The process model: every party (honest or byzantine) is a `Process`
// driven once per synchronous round by the engine.
//
// Semantics: a message sent during round r is delivered at the beginning of
// round r+1 (one round == the paper's known delay bound Delta). The inbox a
// process sees at round r therefore contains exactly the messages addressed
// to it that were sent in round r-1, ordered by sender id (determinism).
//
// `Context` is abstract so that adversary strategies can interpose shims
// (message filtering, dual-world simulation) around honest process code —
// exactly the "byzantine party internally simulates honest instances"
// device used by the paper's impossibility proofs.
//
// A process that sends the same bytes to several parties calls
// `multicast`, which means one `send` per recipient in order. The engine's
// context checks every channel as `send` would, then stores the payload
// once for all of them (its per-round intern table is the only dedupe of
// payload bytes). Shims keep the default loop over `send`: a filter may
// itself send, and batching inside a shim would move those sends relative
// to the recipient's inbox.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "crypto/pki.hpp"
#include "net/topology.hpp"

namespace bsm::net {

/// A physical message in flight or delivered.
struct Envelope {
  PartyId from = kNobody;
  PartyId to = kNobody;
  Round sent_round = 0;
  /// A view into the engine's per-round payload arena, valid until the end
  /// of the round the envelope is delivered in. The n envelopes of one
  /// broadcast share one stored copy. A process that keeps a message past
  /// its on_round call copies the bytes.
  ByteView payload;
  /// Engine-internal memo: fnv1a64(payload) when nonzero, unset when 0 (the
  /// delivery fold recomputes it then). Lets the n copies of one broadcast
  /// share a single payload hash. Shims that build their own envelopes can
  /// ignore it — a zero digest is always safe.
  std::uint64_t payload_digest = 0;
};

/// The messages delivered to one party this round: a contiguous slice of
/// the engine's per-round mailbox arena, ordered by sender id (and by send
/// order within one sender). A `std::vector<Envelope>` converts implicitly,
/// so shims that rewrite inboxes can still hand their own buffers down.
using Inbox = std::span<const Envelope>;

/// Per-round services the engine (or an adversarial shim) offers a process.
class Context {
 public:
  virtual ~Context() = default;

  /// Queue `payload` for delivery to `to` next round. Sends to parties the
  /// sender shares no channel with are dropped (self-sends are allowed and
  /// loop back next round — protocols routinely "send to all incl. self").
  /// The engine copies the bytes before returning, so `payload` need only
  /// live for the call; the recipient's view of them lives for the round
  /// they are delivered in.
  virtual void send(PartyId to, ByteView payload) = 0;

  /// Send `payload` to every party in `to`, in order: exactly
  /// `for (PartyId p : to) send(p, payload)`, which is the default.
  virtual void multicast(std::span<const PartyId> to, ByteView payload) {
    for (PartyId p : to) send(p, payload);
  }

  [[nodiscard]] virtual Round round() const = 0;
  [[nodiscard]] virtual PartyId self() const = 0;
  [[nodiscard]] virtual const Topology& topology() const = 0;
  /// Signing capability for this party's own identity only.
  [[nodiscard]] virtual const crypto::Signer& signer() const = 0;
  [[nodiscard]] virtual const crypto::Pki& pki() const = 0;
};

/// A party's code. Honest protocol implementations and byzantine strategies
/// share this interface; the engine merely tracks which ids are corrupt.
class Process {
 public:
  virtual ~Process() = default;

  /// Called once per round, in increasing round order, starting at round 0
  /// (whose inbox is always empty).
  virtual void on_round(Context& ctx, Inbox inbox) = 0;
};

}  // namespace bsm::net

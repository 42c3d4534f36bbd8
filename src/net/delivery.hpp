// The delivery-schedule hook: an adversarial (or merely adverse) network
// scheduler interposed between the round's sends and inbox assembly.
//
// The lock-step engine's default is the paper's synchronous model — every
// message sent in round r is delivered at round r+1, grouped by recipient
// and ordered by (sender id, send order). A DeliveryPolicy may perturb
// that schedule envelope by envelope: delay (carry a message to a later
// round), drop (network omission), or reorder (demote a sender's group
// within one recipient's inbox for one round). The engine owns the carried
// arena and the merge; the policy only issues verdicts, so every policy is
// automatically deterministic as long as its verdicts are a pure function
// of (its own state, the verdict sequence) — which the sched layer's
// policies guarantee by deriving all randomness from explicit seeds.
//
// A null policy is not the same code path as an installed
// always-deliver policy: the engine keeps the historical zero-cost path
// (move sends straight into the mailbox) when no policy is set, and an
// installed sched::ScriptedPolicy replaying the empty trace (every verdict
// Deliver, rank 0) is contractually transcript-identical to it (asserted
// by tests/sched_test.cpp and tests/delivery_test.cpp).
#pragma once

#include <cstdint>

#include "common/party_set.hpp"
#include "net/process.hpp"

namespace bsm::net {

/// Declared perturbation bounds for a schedule: which parties' adjacent
/// channels may be touched, how far a message may be delayed, and how many
/// deliveries per party the schedule may omit. Policies that stay inside
/// the envelope of the run's corrupted parties are *behavioural no-ops for
/// correctness*: a byzantine party's channels carry no guarantees, so the
/// bSM properties must keep holding under every such schedule — which is
/// exactly what sched::Explorer checks.
struct FaultEnvelope {
  /// Parties whose adjacent channels (either endpoint) the schedule may
  /// perturb. Empty = no channel may be touched.
  core::PartySet targets;
  Round max_delay = 0;                 ///< max rounds a delivery may slip
  std::uint32_t omission_budget = 0;   ///< max drops per targeted party

  /// May a schedule inside this envelope touch the channel from -> to?
  [[nodiscard]] bool covers(PartyId from, PartyId to) const {
    return targets.contains(from) || targets.contains(to);
  }
};

/// One verdict per in-flight envelope, issued at the start of the round
/// the envelope would synchronously arrive in.
struct DeliveryVerdict {
  enum class Action : std::uint8_t {
    Deliver,  ///< deliver this round (rank orders it within the inbox)
    Delay,    ///< carry; deliver `delay` rounds later with `rank`
    Drop,     ///< never deliver (network omission)
  };

  Action action = Action::Deliver;
  Round delay = 0;          ///< Delay only: rounds past now, >= 1 (due round saturates)
  std::uint32_t rank = 0;   ///< inbox group rank; 0 keeps sender order

  [[nodiscard]] static DeliveryVerdict deliver(std::uint32_t rank = 0) {
    return {Action::Deliver, 0, rank};
  }
  [[nodiscard]] static DeliveryVerdict delayed(Round by, std::uint32_t rank = 0) {
    return {Action::Delay, by, rank};
  }
  [[nodiscard]] static DeliveryVerdict dropped() { return {Action::Drop, 0, 0}; }
};

/// The schedule hook. The engine consults the policy once per fresh
/// envelope, in deterministic order (ascending sender id, send order
/// within a sender), passing the delivery round being assembled. Verdicts
/// are final: a delayed envelope is not re-offered at its due round — the
/// policy chose its delivery round and rank when it saw the envelope.
///
/// Delivery order with a policy installed: each recipient's inbox for a
/// round is ordered by (rank, sender id, decision order), where carried
/// envelopes precede fresh ones at equal (rank, sender). With every
/// verdict Deliver/rank 0 this collapses to the engine's native
/// (sender id, send order) contract.
class DeliveryPolicy {
 public:
  virtual ~DeliveryPolicy() = default;

  /// Verdict for `env`, which would synchronously deliver at round `now`.
  [[nodiscard]] virtual DeliveryVerdict on_envelope(Round now, const Envelope& env) = 0;

  /// The bounds this policy promises to stay inside (used by the explorer
  /// and the property harnesses to decide whether a failure is a finding).
  [[nodiscard]] virtual const FaultEnvelope& envelope() const = 0;

  /// Stall hook: called once per engine round *before* the
  /// engine would assemble and step protocol round `next`. Returning true
  /// stalls the engine for that engine round — nothing is delivered, no
  /// process steps, the protocol round stays frozen and only the engine's
  /// round clock advances. The engine re-consults for the same `next` on
  /// the following engine round, so a policy stalls k rounds by returning
  /// true k times. The default (synchronous and bounded-perturbation
  /// policies) never stalls.
  [[nodiscard]] virtual bool stall_round(Round next) {
    (void)next;
    return false;
  }

  /// Upper bound on the total engine rounds stall_round() may consume
  /// over a run (0 for policies that never stall). core::engine_round_cap
  /// sizes the default round-limit guard as protocol rounds + this budget.
  [[nodiscard]] virtual Round stall_budget() const { return 0; }
};

}  // namespace bsm::net

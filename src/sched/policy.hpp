// Concrete delivery schedules over the net::DeliveryPolicy hook, plus the
// pure-value PolicyDesc the scenario layer fans out over.
//
// Layering: this file sees only src/net and src/common. The scenario
// integration (which corrupted parties exist, hence what the
// corrupt-adjacent fault envelope is) happens in core/scenario.cpp, which
// calls make_policy() with the envelope already resolved.
//
// Determinism: every policy's verdicts are a pure function of its seed and
// the deterministic envelope sequence the engine feeds it, so one
// (ScenarioSpec, PolicyDesc) pair names one transcript — across runs and
// across sweep thread counts (tests/sched_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/rng.hpp"
#include "net/delivery.hpp"
#include "sched/trace.hpp"

namespace bsm::sched {

/// Pure-value description of a delivery schedule — the sweep/scenario axis.
/// Copyable, comparable, safe to ship across threads; materialized per
/// cell by make_policy(), so each engine owns its own verdict stream.
struct PolicyDesc {
  enum class Kind : std::uint8_t {
    Synchronous,       ///< the identity schedule (transcript-preserving)
    RandomDelay,       ///< seeded bounded delays on in-envelope channels
    TargetedOmission,  ///< budgeted drops on in-envelope channels
    Scripted,          ///< replay a ScheduleTrace
  };

  Kind kind = Kind::Synchronous;
  std::uint64_t seed = 0;              ///< RandomDelay verdict stream
  Round max_delay = 2;                 ///< RandomDelay delay bound (>= 1)
  std::uint32_t delay_permille = 250;  ///< RandomDelay per-envelope delay odds
  std::uint32_t omission_budget = 2;   ///< TargetedOmission drops per target
  ScheduleTrace trace;                 ///< Scripted only

  bool operator==(const PolicyDesc&) const = default;

  /// Is this the identity schedule (no policy worth installing)?
  [[nodiscard]] bool is_synchronous() const noexcept { return kind == Kind::Synchronous; }
};

/// Seeded bounded delays: each envelope on a covered channel is delayed
/// with probability delay_permille/1000, by 1..max_delay rounds, all drawn
/// from one explicit rng stream.
class RandomDelayPolicy final : public net::DeliveryPolicy {
 public:
  RandomDelayPolicy(std::uint64_t seed, std::uint32_t delay_permille, Round max_delay,
                    net::FaultEnvelope envelope);

  [[nodiscard]] net::DeliveryVerdict on_envelope(Round now, const net::Envelope& env) override;
  [[nodiscard]] const net::FaultEnvelope& envelope() const override { return envelope_; }

  [[nodiscard]] std::uint64_t delays() const noexcept { return delays_; }

 private:
  Rng rng_;
  std::uint32_t delay_permille_;
  net::FaultEnvelope envelope_;
  std::uint64_t delays_ = 0;
};

/// Budgeted network omissions: drops envelopes on covered channels until
/// each targeted party's omission budget is spent (accounted against the
/// targeted endpoint; `from` wins when both endpoints are targets).
class TargetedOmissionPolicy final : public net::DeliveryPolicy {
 public:
  explicit TargetedOmissionPolicy(net::FaultEnvelope envelope);

  [[nodiscard]] net::DeliveryVerdict on_envelope(Round now, const net::Envelope& env) override;
  [[nodiscard]] const net::FaultEnvelope& envelope() const override { return envelope_; }

  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }

 private:
  net::FaultEnvelope envelope_;
  std::unordered_map<PartyId, std::uint32_t> spent_;  ///< per-target drops so far
  std::uint64_t drops_ = 0;
};

/// Replays a ScheduleTrace: an op at (round, from, to) applies to every
/// envelope of that channel group at that delivery round; everything else
/// delivers natively. Stall ops are keyed by protocol round alone: a
/// `stall@r:0>0*c` op stalls the engine for c engine rounds before
/// protocol round r begins. Serialize the trace, parse it back, replay —
/// the transcript is bit-for-bit the same (the explorer's counterexample
/// reproduction contract).
class ScriptedPolicy final : public net::DeliveryPolicy {
 public:
  explicit ScriptedPolicy(ScheduleTrace trace);

  [[nodiscard]] net::DeliveryVerdict on_envelope(Round now, const net::Envelope& env) override;
  [[nodiscard]] const net::FaultEnvelope& envelope() const override { return envelope_; }
  [[nodiscard]] bool stall_round(Round next) override;
  [[nodiscard]] Round stall_budget() const override { return stall_budget_; }

  [[nodiscard]] const ScheduleTrace& trace() const noexcept { return trace_; }
  [[nodiscard]] std::uint64_t applied() const noexcept { return applied_; }

 private:
  /// One (round, from, to) slot, compared exactly. slot_key keeps only
  /// the round's low 24 bits, so as the map key it would alias round
  /// r + 2^24 with round r; it stays the hash.
  struct Slot {
    Round round;
    PartyId from;
    PartyId to;
    bool operator==(const Slot&) const = default;
  };
  struct SlotHash {
    std::size_t operator()(const Slot& s) const noexcept;
  };

  ScheduleTrace trace_;
  net::FaultEnvelope envelope_;  ///< implied by the ops: their endpoints/args
  std::unordered_map<Slot, ScheduleOp, SlotHash> by_slot_;  ///< (round, from, to) -> op
  std::unordered_map<Round, std::uint32_t> stalls_;  ///< protocol round -> stalls left
  Round stall_budget_ = 0;                           ///< total scripted stall rounds
  std::uint64_t applied_ = 0;
};

/// Materialize `desc` against the run's fault envelope (built by the
/// scenario layer from the scenario's corrupted ids). Returns nullptr for
/// the synchronous desc: the engine's null-policy fast path IS the
/// synchronous schedule, so sweeps pay zero overhead until a cell actually
/// perturbs.
[[nodiscard]] std::unique_ptr<net::DeliveryPolicy> make_policy(const PolicyDesc& desc,
                                                               net::FaultEnvelope envelope);

}  // namespace bsm::sched

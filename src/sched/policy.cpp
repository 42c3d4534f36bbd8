#include "sched/policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace bsm::sched {

namespace {

[[nodiscard]] std::uint64_t slot_key(Round round, PartyId from, PartyId to) {
  return (static_cast<std::uint64_t>(round) << 40) ^ (static_cast<std::uint64_t>(from) << 20) ^
         to;
}

}  // namespace

RandomDelayPolicy::RandomDelayPolicy(std::uint64_t seed, std::uint32_t delay_permille,
                                     Round max_delay, net::FaultEnvelope envelope)
    : rng_(seed), delay_permille_(delay_permille), envelope_(std::move(envelope)) {
  envelope_.max_delay = std::max<Round>(max_delay, 1);
}

net::DeliveryVerdict RandomDelayPolicy::on_envelope(Round, const net::Envelope& env) {
  if (!envelope_.covers(env.from, env.to)) return net::DeliveryVerdict::deliver();
  // One stream, consumed only for covered envelopes, in the engine's
  // deterministic verdict order — the whole schedule is a function of the
  // seed and the transcript prefix.
  if (rng_.below(1000) >= delay_permille_) return net::DeliveryVerdict::deliver();
  ++delays_;
  return net::DeliveryVerdict::delayed(1 + static_cast<Round>(rng_.below(envelope_.max_delay)));
}

TargetedOmissionPolicy::TargetedOmissionPolicy(net::FaultEnvelope envelope)
    : envelope_(std::move(envelope)) {}

net::DeliveryVerdict TargetedOmissionPolicy::on_envelope(Round, const net::Envelope& env) {
  if (!envelope_.covers(env.from, env.to)) return net::DeliveryVerdict::deliver();
  const PartyId target = envelope_.targets.contains(env.from) ? env.from : env.to;
  auto& spent = spent_[target];
  if (spent >= envelope_.omission_budget) return net::DeliveryVerdict::deliver();
  ++spent;
  ++drops_;
  return net::DeliveryVerdict::dropped();
}

std::size_t ScriptedPolicy::SlotHash::operator()(const Slot& s) const noexcept {
  return slot_key(s.round, s.from, s.to);
}

ScriptedPolicy::ScriptedPolicy(ScheduleTrace trace) : trace_(std::move(trace)) {
  for (const auto& op : trace_.ops) {
    if (op.kind == ScheduleOp::Kind::Stall) {
      // Not a channel op: keyed by protocol round alone, budgets summed
      // (saturating — a hand-written trace may carry absurd counts).
      auto& pending = stalls_[op.round];
      pending = pending > UINT32_MAX - op.arg ? UINT32_MAX : pending + op.arg;
      stall_budget_ = stall_budget_ > UINT32_MAX - op.arg ? UINT32_MAX : stall_budget_ + op.arg;
      continue;
    }
    envelope_.targets.insert(op.from);
    envelope_.targets.insert(op.to);
    if (op.kind == ScheduleOp::Kind::Delay) {
      envelope_.max_delay = std::max<Round>(envelope_.max_delay, op.arg);
    }
    if (op.kind == ScheduleOp::Kind::Drop) ++envelope_.omission_budget;
    // First op per (round, channel) slot wins; the explorer never emits
    // two ops on one slot (same-slot extensions are skipped at
    // generation), so this only disambiguates hand-written traces.
    by_slot_.emplace(Slot{op.round, op.from, op.to}, op);
  }
}

bool ScriptedPolicy::stall_round(Round next) {
  const auto it = stalls_.find(next);
  if (it == stalls_.end() || it->second == 0) return false;
  --it->second;
  ++applied_;
  return true;
}

net::DeliveryVerdict ScriptedPolicy::on_envelope(Round now, const net::Envelope& env) {
  const auto it = by_slot_.find(Slot{now, env.from, env.to});
  if (it == by_slot_.end()) return net::DeliveryVerdict::deliver();
  ++applied_;
  switch (it->second.kind) {
    case ScheduleOp::Kind::Drop:
      return net::DeliveryVerdict::dropped();
    case ScheduleOp::Kind::Delay:
      return net::DeliveryVerdict::delayed(it->second.arg);
    case ScheduleOp::Kind::Rank:
      return net::DeliveryVerdict::deliver(it->second.arg);
    case ScheduleOp::Kind::Stall:
      break;  // never in by_slot_ (keyed by round alone, handled above)
  }
  return net::DeliveryVerdict::deliver();
}

std::unique_ptr<net::DeliveryPolicy> make_policy(const PolicyDesc& desc,
                                                 net::FaultEnvelope envelope) {
  switch (desc.kind) {
    case PolicyDesc::Kind::Synchronous:
      return nullptr;  // the engine's null-policy fast path
    case PolicyDesc::Kind::RandomDelay:
      envelope.max_delay = std::max<Round>(desc.max_delay, 1);
      return std::make_unique<RandomDelayPolicy>(desc.seed, desc.delay_permille,
                                                 envelope.max_delay, std::move(envelope));
    case PolicyDesc::Kind::TargetedOmission:
      envelope.omission_budget = desc.omission_budget;
      return std::make_unique<TargetedOmissionPolicy>(std::move(envelope));
    case PolicyDesc::Kind::Scripted:
      return std::make_unique<ScriptedPolicy>(desc.trace);
  }
  throw std::logic_error("make_policy: unknown policy kind");
}

}  // namespace bsm::sched

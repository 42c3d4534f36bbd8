// The search core shared by the two schedule searches (the
// iterative-deepening explorer and the greybox fuzzer): the evaluation
// kernel, the search preconditions, the fault envelope, the 1-minimal
// shrinker, and the findings block both reports extend.
//
// One eval = one full simulation of a ScenarioSpec under one
// ScheduleTrace: install the trace as a ScriptedPolicy, step the engine
// round by round, fold every party's view_hash into a per-round state
// digest, and chain those digests into a trail. Two schedules with equal
// trails are indistinguishable to every party at every round — the
// explorer prunes on the final trail fold, the fuzzer treats each
// *prefix* of the chain as a coverage point (reaching a prefix nobody
// reached before means the schedule drove the system into a genuinely
// new state at that round).
//
// The fold is exactly the explorer's historical one (seeded at
// 0x5eed0f0dd, per-round state keyed by splitmix64(round)), so the
// refactor is digest-transparent: explorer reports — and the sched/*
// bench digests built from them — are unchanged.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/scenario.hpp"
#include "net/delivery.hpp"
#include "sched/trace.hpp"

namespace bsm::sched {

/// What a schedule search found, shared by ExplorerReport and FuzzReport.
struct SearchFindings {
  std::size_t violations = 0;  ///< searched schedules violating a property

  /// The first violating schedule, greedily shrunk to 1-minimal; and the
  /// violating run's per-party view hashes (the replay target: re-running
  /// the serialized trace must reproduce them bit for bit).
  std::optional<ScheduleTrace> counterexample;
  std::vector<std::uint64_t> counterexample_views;
  std::size_t shrink_runs = 0;  ///< extra runs the minimizer spent

  [[nodiscard]] bool all_satisfied() const noexcept { return violations == 0; }
};

}  // namespace bsm::sched

namespace bsm::sched::detail {

/// One channel-round delivery group observed in a run: a point a
/// schedule could perturb.
struct Slot {
  Round round = 0;
  PartyId from = 0;
  PartyId to = 0;

  [[nodiscard]] bool operator<(const Slot& o) const {
    if (round != o.round) return round < o.round;
    if (from != o.from) return from < o.from;
    return to < o.to;
  }
  bool operator==(const Slot&) const = default;
};

/// What one schedule run reports back to a search.
struct Eval {
  std::uint64_t trail = 0;  ///< fold of per-round state digests
  int violated = 0;
  std::vector<Slot> menu;  ///< observed delivery groups, sorted unique
  std::vector<std::uint64_t> views;
  /// The trail value after each simulated round (the coverage points the
  /// fuzzer feeds on); empty unless requested.
  std::vector<std::uint64_t> prefixes;
};

/// Run `base` under `trace` for `horizon` rounds (0 = the protocol
/// deadline), recording the trail, optionally the delivery-group menu
/// and the per-round trail prefixes. Pure per call: every run owns its
/// engine, so eval_schedule is safe to fan out over run_cells().
[[nodiscard]] Eval eval_schedule(const core::ScenarioSpec& base,
                                 const std::optional<core::ProtocolSpec>& resolved,
                                 const ScheduleTrace& trace, Round horizon, bool collect_menu,
                                 bool collect_prefixes = false);

/// The preconditions of a schedule search: `scenario` must leave the
/// schedule axis to the search (synchronous) and be solvable per the
/// paper unless it carries forced_spec. Returns the resolved protocol
/// (nullopt under forced_spec); throws std::logic_error naming `who`.
[[nodiscard]] std::optional<core::ProtocolSpec> search_protocol(const core::ScenarioSpec& scenario,
                                                                const char* who);

/// The channels a search may perturb: those with a corrupted endpoint
/// (the fault envelope under which the paper's guarantees must survive
/// every schedule), or every channel when `corrupt_adjacent_only` is
/// false (violation hunting beyond the tolerance). Targets only; delay
/// and omission bounds are left to the caller.
[[nodiscard]] net::FaultEnvelope search_envelope(const core::ScenarioSpec& scenario,
                                                 bool corrupt_adjacent_only);

/// Greedy shrink of a violating `trace`: whole rounds first, then single
/// ops. Every removal is re-verified, so the result still violates and is
/// 1-minimal op-wise. `views` gets the final trace's view hashes;
/// `shrink_runs` counts every run spent.
[[nodiscard]] ScheduleTrace minimize(const core::ScenarioSpec& scenario,
                                     const std::optional<core::ProtocolSpec>& resolved,
                                     Round horizon, ScheduleTrace trace,
                                     std::vector<std::uint64_t>* views, std::size_t* shrink_runs);

}  // namespace bsm::sched::detail

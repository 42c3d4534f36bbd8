// One-call experiment driver: assemble an engine, install honest protocol
// processes and adversarial strategies, run to the protocol's deadline, and
// verify the bSM properties on the honest outputs.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/factory.hpp"
#include "core/problem.hpp"
#include "core/properties.hpp"
#include "net/engine.hpp"

namespace bsm::core {

/// One corrupted party: strategy installed at round `when` (0 = from the
/// start; later = adaptive corruption).
struct AdversaryAssignment {
  PartyId id = kNobody;
  Round when = 0;
  std::unique_ptr<net::Process> strategy;
};

struct RunSpec {
  BsmConfig config;
  matching::PreferenceProfile inputs;  ///< complete; byzantine entries unused
  std::vector<AdversaryAssignment> adversaries;
  std::uint64_t pki_seed = 1;
  Round extra_rounds = 2;  ///< slack after the protocol deadline

  /// Attack experiments force a construction outside its validity region.
  std::optional<ProtocolSpec> forced_spec;

  /// The construction the caller already resolved for `config` (e.g. served
  /// from the sweep layer's OracleCache), so run_bsm() skips re-deriving
  /// it. Must equal resolve_protocol(config); ignored when `forced_spec`
  /// is set.
  std::optional<ProtocolSpec> resolved_spec;

  /// Delivery schedule installed into the engine before round 0 (see
  /// net/delivery.hpp); nullptr = the synchronous fast path. Materialized
  /// from ScenarioSpec::sched by to_run_spec().
  std::unique_ptr<net::DeliveryPolicy> policy;

  /// Hard engine-round guard for run_bsm(): a schedule that stalls the
  /// engine past this many engine rounds is cut off and reported as
  /// round_limit_hit instead of hanging. 0 (the default) resolves to the
  /// protocol deadline plus the installed policy's stall_budget() — a cap
  /// no well-formed schedule can hit, so synchronous and bounded-
  /// perturbation runs behave exactly as before.
  Round max_rounds = 0;
};

struct RunOutcome {
  std::vector<std::optional<PartyId>> decisions;
  std::vector<bool> corrupt;
  PropertyReport report;
  net::TrafficStats traffic;
  Round rounds = 0;
  std::vector<std::uint64_t> view_hashes;
  ProtocolSpec spec;

  /// Round-complexity verdict. `terminated` = every honest party decided;
  /// `rounds_to_termination` = engine rounds (protocol rounds + stalled
  /// rounds) consumed up to the first round boundary where they all had —
  /// the partial-synchrony liveness measure the GST batteries bound by
  /// deadline + gst. `round_limit_hit` = the run was cut off by the
  /// max_rounds guard (which forces terminated == false: someone was
  /// still undecided when the guard fired).
  bool terminated = false;
  Round rounds_to_termination = 0;
  bool round_limit_hit = false;

  /// Byte-for-byte run equality — the sweep layer's serial-vs-parallel
  /// determinism guarantee is asserted with this.
  bool operator==(const RunOutcome&) const = default;
};

/// An experiment assembled but not yet run: the engine with honest
/// processes, adversaries, and the delivery policy installed, plus the
/// deadline run_bsm() would run to. The hook for harnesses that drive
/// rounds themselves and inspect per-round state — the schedule explorer
/// steps it round by round, reading view hashes between rounds.
struct AssembledRun {
  BsmConfig config;
  matching::PreferenceProfile inputs;
  ProtocolSpec spec;
  Round rounds = 0;  ///< protocol deadline + the spec's extra slack
  net::Engine engine;
};

/// Build the engine for `spec` (requires a solvable configuration unless
/// `spec.forced_spec` is set). Consumes the spec (process objects move
/// into the engine).
[[nodiscard]] AssembledRun assemble_run(RunSpec spec);

/// Snapshot outcome + property verdicts at the engine's current round.
[[nodiscard]] RunOutcome collect_outcome(const AssembledRun& run);

/// The engine-round guard for stepping `run` through `rounds` protocol
/// rounds: `max_rounds` when nonzero, else `rounds` plus the installed
/// policy's stall_budget(), saturating at the Round range. The stall
/// budget is finite by construction, so the default cap is hit only by a
/// saturated hand-written trace.
[[nodiscard]] Round engine_round_cap(const AssembledRun& run, Round rounds, Round max_rounds);

/// Step `run` through `rounds` protocol rounds one at a time under
/// engine_round_cap(run, rounds, max_rounds), then collect its outcome.
/// rounds_to_termination is the engine-round clock at the first round
/// boundary where every honest party had decided (0 if none did), and
/// round_limit_hit is set only when the guard cut off an undecided run.
[[nodiscard]] RunOutcome run_assembled(AssembledRun& run, Round rounds, Round max_rounds);

/// Run the setting's own protocol (requires a solvable configuration unless
/// `spec.forced_spec` is set) and check properties. Equivalent to
/// assemble_run + run_assembled(run, run.rounds, spec.max_rounds).
[[nodiscard]] RunOutcome run_bsm(RunSpec spec);

/// Convenience: build the honest process a party would run, for adversary
/// strategies that wrap honest code (lying inputs, split-brain simulation).
[[nodiscard]] std::unique_ptr<BsmProcess> honest_process_for(const RunSpec& spec, PartyId id,
                                                             matching::PreferenceList input);

}  // namespace bsm::core

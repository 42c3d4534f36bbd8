// Systematic delivery-schedule search: run one ScenarioSpec under many
// scripted schedules, check the bSM property battery under each, and
// either certify "every explored schedule satisfies" or produce a
// minimized counterexample trace.
//
// Search shape: iterative deepening over the number of perturbation ops
// per schedule. Depth-d candidates extend a depth-(d-1) parent by one op
// in canonical (round, from, to, kind, arg) order — so every op *set* is
// generated exactly once — and the op menu is mined from the parent run's
// observed deliveries (perturbing a channel-round group that carries no
// traffic cannot change anything, so such ops are never generated). Each
// depth wave fans out over core::run_cells(), and results are folded in
// deterministic candidate order, so explored/pruned counts are identical
// at any thread count.
//
// Pruning: every run folds a per-round state digest (the hash of all
// parties' view_hash values after each round) into a trail digest. Two
// schedules with equal trails are indistinguishable to every party at
// every round — extensions of the later one are skipped, and the skipped
// subtree is reported as `pruned`.
//
// Minimization: greedy round-wise shrink (drop a whole round's ops while
// the violation persists) followed by an op-wise pass, so every op in the
// reported counterexample is necessary — removing any single one makes
// the violation disappear (asserted by tests/sched_test.cpp).
#pragma once

#include <cstdint>

#include "core/scenario.hpp"
#include "sched/eval.hpp"
#include "sched/trace.hpp"

namespace bsm::sched {

struct ExplorerOptions {
  /// Rounds to simulate per schedule; 0 = the protocol deadline plus the
  /// scenario's extra_rounds (what run_bsm() runs to).
  Round horizon = 0;

  /// Iterative-deepening bound: max perturbation ops per schedule.
  std::size_t max_depth = 2;

  /// Op menu: which perturbation kinds extensions may use.
  bool allow_drop = true;
  bool allow_delay = true;
  bool allow_reorder = false;
  Round max_delay = 1;  ///< delay ops use distances 1..max_delay

  /// Restrict ops to channels with a corrupted endpoint — the scenario's
  /// fault envelope, under which the paper's guarantees must survive every
  /// schedule (a violation is a library bug). false widens the menu to
  /// honest-honest channels, where violations are expected beyond the
  /// protocol's tolerance (how the counterexample machinery is tested).
  bool corrupt_adjacent_only = true;

  /// Hard cap on exploration runs, the unperturbed root run included, so
  /// at least 1 (explore() throws std::logic_error below it).
  /// Counterexample minimization adds at most |ops| + distinct-op-rounds
  /// + 1 verification runs on top, reported as shrink_runs. Deterministic
  /// truncation: generation order is canonical, so the same prefix is
  /// explored at any thread count.
  std::size_t max_schedules = 4096;

  unsigned threads = 0;  ///< per-wave run_cells fan-out; 0 = hardware
};

struct ExplorerReport : SearchFindings {
  std::size_t explored = 0;  ///< schedules run (excluding shrink re-runs)
  /// Schedules whose trail duplicated an earlier schedule's (equivalent
  /// states); their extension subtrees were skipped.
  std::size_t pruned = 0;
  /// Deepest depth whose wave ran a schedule (0: only the root ran).
  std::size_t depth_reached = 0;
  bool truncated = false;  ///< hit max_schedules before exhausting max_depth
};

/// Explore `scenario` (which must be solvable — or carry forced_spec — and
/// must not itself request a non-synchronous schedule: the explorer owns
/// the schedule axis) and report. Pure: same scenario + options => same
/// report, at any thread count.
[[nodiscard]] ExplorerReport explore(const core::ScenarioSpec& scenario,
                                     const ExplorerOptions& options = {});

}  // namespace bsm::sched

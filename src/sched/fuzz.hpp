// Coverage-guided delivery-schedule fuzzing: a greybox corpus loop over
// the same search space as sched::explore(), tuned for *depth* instead
// of exhaustiveness.
//
// Iterative deepening burns its budget near the root: at depth k every
// op-set of size <= k is enumerated, so the deep, rare interleavings
// where byzantine-broadcast bugs actually live are never reached. The
// fuzzer keeps a corpus of *interesting* ScheduleTraces instead and
// evolves them:
//
//   coverage — every run chains per-round state digests (the hash of
//     all parties' view_hash values after each round) into a trail; the
//     value after round r is the run's r-round *prefix*. A trace is
//     interesting iff it reaches a prefix no earlier run reached: it
//     drove the system into a genuinely new state. Schedules that are
//     behaviourally equivalent (delay-past-horizon vs drop) share every
//     prefix and are never admitted — the same signal the explorer
//     prunes on, reused as greybox feedback.
//
//   mutation — insert/remove/retarget/tweak/splice of drop/delay/rank
//     ops, drawn from the observed delivery-group menu and repaired to
//     stay inside the FaultEnvelope (targets, max-delay, per-target
//     omission budgets) — every candidate the fuzzer runs is a schedule
//     the envelope's contract speaks about.
//
//   energy — parents are picked by energy-weighted choice; an entry
//     gains energy when its children find new coverage and decays when
//     they stop, so the frontier follows recent progress.
//
//   determinism — batches are generated sequentially from one seeded
//     rng and fanned out via core::run_cells(), whose results are
//     folded in candidate order: the same seed yields a bit-identical
//     FuzzReport at any thread count.
//
// Counterexamples keep the explorer's contract: greedy round-wise +
// op-wise shrink to a 1-minimal trace whose serialization replays bit
// for bit (`bsm_cli fuzz --replay`). The corpus persists to a directory
// of digest-keyed text files, so CI accumulates schedule coverage
// across commits and every shrunken counterexample becomes a permanent
// regression asset.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "core/scenario.hpp"
#include "net/delivery.hpp"
#include "sched/eval.hpp"
#include "sched/trace.hpp"

namespace bsm::sched {

struct FuzzerOptions {
  /// Rounds to simulate per schedule; 0 = the protocol deadline plus the
  /// scenario's extra_rounds (what run_bsm() runs to).
  Round horizon = 0;

  /// Mutation/selection rng stream. Same seed => bit-identical report.
  std::uint64_t seed = 1;

  /// Total simulation budget: root + corpus-seed evaluations + mutated
  /// candidates (shrink re-runs are extra, reported as shrink_runs). The
  /// root always runs, so at least 1 (the constructor throws
  /// std::logic_error below it).
  std::size_t max_execs = 2048;

  /// Candidates generated per run_cells() wave.
  std::size_t batch = 32;

  /// Cap on ops per mutated trace (the depth frontier the corpus may
  /// reach; loaded seeds beyond it are not adopted).
  std::size_t max_ops = 8;

  /// Op menu: which perturbation kinds mutations may emit.
  bool allow_drop = true;
  bool allow_delay = true;
  bool allow_reorder = true;
  Round max_delay = 2;  ///< delay ops slip 1..max_delay rounds

  /// Envelope targets: the scenario's corrupted parties (the fault
  /// envelope under which the paper's guarantees must survive every
  /// schedule — a violation is a library bug), or, when false, every
  /// party (violation hunting beyond the tolerance).
  bool corrupt_adjacent_only = true;

  /// Envelope omission budget: max drop ops charged to one targeted
  /// party across a trace (mirrors TargetedOmissionPolicy accounting).
  std::uint32_t omission_budget = 4;

  unsigned threads = 0;  ///< per-batch run_cells fan-out; 0 = hardware

  /// Persisted corpus directory: seed traces (explorer output, prior
  /// counterexamples) are loaded from `*.trace` files before fuzzing and
  /// the final corpus (including any shrunken counterexample) is written
  /// back, one digest-keyed file per trace. Empty = in-memory only.
  std::string corpus_dir;
};

struct FuzzReport : SearchFindings {
  std::size_t execs = 0;          ///< schedules run (excluding shrink re-runs)
  std::size_t corpus_size = 0;    ///< final corpus entries (root included)
  std::size_t corpus_loaded = 0;  ///< seeds adopted from corpus_dir and run
  std::size_t corpus_saved = 0;   ///< new files written in full to corpus_dir
  std::string corpus_error;       ///< "" or why the save stopped (see save_corpus)
  std::size_t coverage = 0;       ///< distinct trail prefixes reached
  std::size_t interesting = 0;    ///< runs admitted for new coverage (excl. root)
};

/// The greybox loop. Construction runs the unperturbed schedule once to
/// mine the delivery-group menu (so mutate() works standalone — the
/// property tests lean on that); run() spends the budget.
class Fuzzer {
 public:
  /// `scenario` must be solvable (or carry forced_spec) and must not
  /// itself request a non-synchronous schedule: the fuzzer owns the
  /// schedule axis. Throws std::logic_error otherwise.
  Fuzzer(const core::ScenarioSpec& scenario, FuzzerOptions options = {});

  /// Run the loop to the budget (or the first violation). Pure: same
  /// scenario + options => same report, at any thread count. Call once.
  [[nodiscard]] FuzzReport run();

  /// The envelope every mutated candidate is repaired into.
  [[nodiscard]] const net::FaultEnvelope& envelope() const noexcept { return envelope_; }

  /// The in-envelope delivery-group menu mined from the root run.
  [[nodiscard]] const std::vector<detail::Slot>& menu() const noexcept { return menu_; }

  /// One mutation step: 1..3 edits of `base` (insert/remove/retarget/
  /// tweak, plus splice from `splice` when given), canonicalized and
  /// repaired into the envelope. Deterministic in `rng`; the result
  /// always serializes, parses back equal, and satisfies
  /// within_envelope() — asserted en masse by tests/fuzz_test.cpp.
  [[nodiscard]] ScheduleTrace mutate(const ScheduleTrace& base, const ScheduleTrace* splice,
                                     Rng& rng) const;

  /// Does `trace` respect `envelope` (channel coverage, delay bound,
  /// per-target omission budgets)?
  [[nodiscard]] static bool within_envelope(const ScheduleTrace& trace,
                                            const net::FaultEnvelope& envelope);

  /// Read every parseable `*.trace` file under `dir` (sorted by file
  /// name, so load order is deterministic). Missing dir = empty corpus.
  [[nodiscard]] static std::vector<ScheduleTrace> load_corpus(const std::string& dir);

  /// Write each non-empty trace to `dir/<16-hex digest>.trace`, creating
  /// `dir` as needed; existing digests are skipped (content-addressed
  /// dedup). Each file ends with core::close_report; the first file that
  /// fails to open or write is removed, saving stops there, and `*error`
  /// (when non-null) gets "write error on <file>", or "cannot create
  /// <dir>". Returns the number of new files written in full. Never throws.
  static std::size_t save_corpus(const std::string& dir, const std::vector<ScheduleTrace>& traces,
                                 std::string* error);

 private:
  struct Entry {
    ScheduleTrace trace;
    std::uint64_t energy = 1;
  };

  /// Is `trace` a seed the corpus may adopt (only the scenario's parties,
  /// in-envelope, allowed op kinds, within max_ops)?
  [[nodiscard]] bool admissible(const ScheduleTrace& trace) const;

  /// Canonical order + one op per (round, from, to) slot + envelope
  /// repair (drop uncovered/disallowed ops, clamp args, charge omission
  /// budgets, trim to max_ops).
  void repair(ScheduleTrace& trace) const;

  /// Energy-weighted corpus index.
  [[nodiscard]] std::size_t pick_parent(Rng& rng) const;

  /// Fold one evaluated candidate into coverage/corpus/report. Returns
  /// the number of coverage points the run added.
  std::size_t fold(const ScheduleTrace& trace, const detail::Eval& eval,
                   std::optional<std::size_t> parent, FuzzReport& report);

  core::ScenarioSpec scenario_;
  FuzzerOptions opts_;
  std::optional<core::ProtocolSpec> resolved_;
  net::FaultEnvelope envelope_;
  detail::Eval root_;
  std::vector<detail::Slot> menu_;  ///< in-envelope slots, sorted unique
  std::vector<Entry> corpus_;
  std::unordered_set<std::uint64_t> coverage_;  ///< trail prefixes reached
  std::unordered_set<std::uint64_t> seen_;      ///< trace digests already run
};

}  // namespace bsm::sched

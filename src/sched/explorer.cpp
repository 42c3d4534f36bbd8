#include "sched/explorer.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/hash.hpp"
#include "core/sweep.hpp"
#include "sched/eval.hpp"

namespace bsm::sched {

namespace {

// The per-schedule simulation (trail fold, delivery-group menu, property
// verdict), the preconditions, the envelope and the shrinker live in
// sched/eval.hpp, shared with the greybox fuzzer.
using detail::Eval;
using detail::eval_schedule;
using detail::Slot;

struct Candidate {
  ScheduleTrace trace;
};

class Search {
 public:
  Search(const core::ScenarioSpec& scenario, const ExplorerOptions& opts)
      : scenario_(scenario),
        opts_(opts),
        resolved_(detail::search_protocol(scenario, "sched::explore")),
        envelope_(detail::search_envelope(scenario, opts.corrupt_adjacent_only)) {}

  [[nodiscard]] ExplorerReport run() {
    ExplorerReport report;

    // Depth 0: the unperturbed schedule seeds the menu and the trail set.
    const Eval root = eval_schedule(scenario_, resolved_, ScheduleTrace{}, opts_.horizon, true);
    ++report.explored;
    seen_.insert(root.trail);
    if (root.violated != 0) {
      // The scenario violates with no perturbation at all: nothing to
      // minimize, the counterexample is the empty schedule.
      ++report.violations;
      report.counterexample = ScheduleTrace{};
      report.counterexample_views = root.views;
      return report;
    }

    std::vector<std::pair<ScheduleTrace, std::vector<Slot>>> frontier;
    frontier.emplace_back(ScheduleTrace{}, root.menu);

    std::optional<ScheduleTrace> violating;
    std::vector<std::uint64_t> violating_views;

    for (std::size_t depth = 1; depth <= opts_.max_depth && !frontier.empty(); ++depth) {
      // Generate this wave's candidates in canonical order. A slot the
      // parent already perturbs is skipped outright: ScriptedPolicy keys
      // ops by (round, from, to), so a second op on the same slot would
      // be inert — a wasted run that pruning would only catch after the
      // fact.
      std::vector<Candidate> wave;
      for (std::size_t p = 0; p < frontier.size(); ++p) {
        const auto& [trace, menu] = frontier[p];
        for (const Slot& slot : menu) {
          const bool taken =
              std::any_of(trace.ops.begin(), trace.ops.end(), [&](const ScheduleOp& op) {
                return op.round == slot.round && op.from == slot.from && op.to == slot.to;
              });
          if (taken) continue;
          for (const ScheduleOp& op : ops_for(slot)) {
            if (!trace.ops.empty() && !(trace.ops.back() < op)) continue;
            if (report.explored + wave.size() >= opts_.max_schedules) {
              report.truncated = true;
              break;
            }
            Candidate c;
            c.trace = trace;
            c.trace.ops.push_back(op);
            wave.push_back(std::move(c));
          }
          if (report.truncated) break;
        }
        if (report.truncated) break;
      }
      if (wave.empty()) break;
      report.depth_reached = depth;  // only a depth that runs a schedule counts

      // Run the wave in parallel; fold results in candidate order so the
      // report is thread-count independent.
      const bool last_depth = depth == opts_.max_depth;
      const auto evals = core::run_cells(
          wave,
          [&](const Candidate& c) {
            return eval_schedule(scenario_, resolved_, c.trace, opts_.horizon, !last_depth);
          },
          {.threads = opts_.threads});

      std::vector<std::pair<ScheduleTrace, std::vector<Slot>>> next;
      for (std::size_t i = 0; i < wave.size(); ++i) {
        const Eval& eval = evals[i];
        ++report.explored;
        if (eval.violated != 0) {
          ++report.violations;
          if (!violating.has_value()) {
            violating = wave[i].trace;
            violating_views = eval.views;
          }
          continue;  // a violating schedule's extensions add nothing
        }
        if (!seen_.insert(eval.trail).second) {
          // Every party saw exactly what it saw under an earlier schedule
          // (e.g. delay-past-horizon vs drop): the schedule is equivalent,
          // its extension subtree is skipped.
          ++report.pruned;
          continue;
        }
        if (!last_depth) next.emplace_back(std::move(wave[i].trace), eval.menu);
      }
      if (violating.has_value()) break;  // deepen no further; minimize
      frontier = std::move(next);
    }

    if (violating.has_value()) {
      report.counterexample = detail::minimize(scenario_, resolved_, opts_.horizon, *violating,
                                               &violating_views, &report.shrink_runs);
      report.counterexample_views = std::move(violating_views);
    }
    return report;
  }

 private:
  /// The concrete ops the menu offers at one slot, in canonical order.
  [[nodiscard]] std::vector<ScheduleOp> ops_for(const Slot& slot) const {
    std::vector<ScheduleOp> ops;
    if (!envelope_.covers(slot.from, slot.to)) return ops;
    if (opts_.allow_drop) {
      ops.push_back({ScheduleOp::Kind::Drop, slot.round, slot.from, slot.to, 1});
    }
    if (opts_.allow_delay) {
      for (Round d = 1; d <= std::max<Round>(opts_.max_delay, 1); ++d) {
        ops.push_back({ScheduleOp::Kind::Delay, slot.round, slot.from, slot.to, d});
      }
    }
    if (opts_.allow_reorder) {
      ops.push_back({ScheduleOp::Kind::Rank, slot.round, slot.from, slot.to, 1});
    }
    return ops;
  }

  core::ScenarioSpec scenario_;
  ExplorerOptions opts_;
  std::optional<core::ProtocolSpec> resolved_;
  net::FaultEnvelope envelope_;
  std::unordered_set<std::uint64_t> seen_;
};

}  // namespace

ExplorerReport explore(const core::ScenarioSpec& scenario, const ExplorerOptions& options) {
  Search search(scenario, options);
  return search.run();
}

}  // namespace bsm::sched

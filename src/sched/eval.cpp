#include "sched/eval.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/hash.hpp"
#include "core/runner.hpp"
#include "obs/recorder.hpp"

namespace bsm::sched::detail {

Eval eval_schedule(const core::ScenarioSpec& base,
                   const std::optional<core::ProtocolSpec>& resolved, const ScheduleTrace& trace,
                   Round horizon, bool collect_menu, bool collect_prefixes) {
  obs::Recorder* const rec = obs::current();
  const std::uint64_t obs_t0 = rec ? rec->now_ns() : 0;
  core::ScenarioSpec scenario = base;
  scenario.sched = PolicyDesc{};
  scenario.sched.kind = PolicyDesc::Kind::Scripted;
  scenario.sched.trace = trace;

  core::AssembledRun run = core::assemble_run(core::to_run_spec(scenario, nullptr, resolved));
  const Round rounds = horizon == 0 ? run.rounds : horizon;

  std::vector<Slot> menu;
  if (collect_menu) {
    run.engine.set_observer([&](const net::Envelope& env) {
      if (env.from == env.to) return;  // self-loopback: not a network channel
      const Slot slot{run.engine.current_round(), env.from, env.to};
      // A channel's envelopes in one round usually arrive back to back;
      // the sort and unique below still settle the rest.
      if (menu.empty() || menu.back() != slot) menu.push_back(slot);
    });
  }

  // Scripted stalls make one protocol round cost several engine rounds;
  // the default cap (rounds + stall budget) is never hit by
  // search-generated traces.
  const Round cap = core::engine_round_cap(run, rounds, 0);

  Eval eval;
  eval.trail = 0x5eed0f0ddULL;
  if (collect_prefixes) eval.prefixes.reserve(rounds);
  for (Round r = 0; r < rounds; ++r) {
    const auto prog = run.engine.run_guarded(1, cap);
    std::uint64_t state = splitmix64(r);
    if (prog.engine_rounds > prog.protocol_rounds) {
      // Stalled rounds are schedule-visible: fold the stall count so a
      // stalled prefix never collides with the synchronous one. Traces
      // without stalls keep the historical digest stream byte for byte.
      state = hash_combine(state, 0x57a11ULL + (prog.engine_rounds - prog.protocol_rounds));
    }
    for (PartyId id = 0; id < run.config.n(); ++id) {
      state = hash_combine(state, run.engine.view_hash(id));
    }
    eval.trail = hash_combine(eval.trail, state);
    if (collect_prefixes) eval.prefixes.push_back(eval.trail);
    if (prog.limit_hit) break;
  }

  const core::RunOutcome outcome = core::collect_outcome(run);
  eval.violated = outcome.report.all() ? 0 : 1;
  eval.views = outcome.view_hashes;

  std::sort(menu.begin(), menu.end());
  menu.erase(std::unique(menu.begin(), menu.end()), menu.end());
  eval.menu = std::move(menu);
  if (rec != nullptr) {
    rec->record(obs::Span::SchedEval, obs_t0, rec->now_ns(), eval.violated);
    rec->count(obs::Counter::Evals);
  }
  return eval;
}

std::optional<core::ProtocolSpec> search_protocol(const core::ScenarioSpec& scenario,
                                                  const char* who) {
  const auto fail = [who](const char* why) {
    throw std::logic_error(std::string("bsm: requirement violated: ") + who + ": " + why);
  };
  if (!scenario.sched.is_synchronous()) {
    fail("the search owns the schedule axis; pass a synchronous scenario");
  }
  if (scenario.forced_spec.has_value()) return std::nullopt;
  auto resolved = core::resolve_protocol(scenario.config);
  if (!resolved.has_value()) fail("scenario is unsolvable per the paper");
  return resolved;
}

net::FaultEnvelope search_envelope(const core::ScenarioSpec& scenario,
                                   bool corrupt_adjacent_only) {
  net::FaultEnvelope envelope;
  if (corrupt_adjacent_only) {
    for (const auto& desc : scenario.adversaries) envelope.targets.insert(desc.id);
  } else {
    envelope.targets = core::PartySet::universe(scenario.config.n());
  }
  return envelope;
}

ScheduleTrace minimize(const core::ScenarioSpec& scenario,
                       const std::optional<core::ProtocolSpec>& resolved, Round horizon,
                       ScheduleTrace trace, std::vector<std::uint64_t>* views,
                       std::size_t* shrink_runs) {
  const auto still_violates = [&](const ScheduleTrace& t) {
    ++*shrink_runs;
    const Eval eval = eval_schedule(scenario, resolved, t, horizon, false);
    if (eval.violated != 0) *views = eval.views;
    return eval.violated != 0;
  };

  // Round-wise pass.
  std::vector<Round> rounds;
  for (const auto& op : trace.ops) rounds.push_back(op.round);
  std::sort(rounds.begin(), rounds.end());
  rounds.erase(std::unique(rounds.begin(), rounds.end()), rounds.end());
  for (const Round r : rounds) {
    ScheduleTrace without = trace;
    std::erase_if(without.ops, [r](const ScheduleOp& op) { return op.round == r; });
    if (without.ops.size() < trace.ops.size() && still_violates(without)) trace = without;
  }

  // Op-wise pass.
  for (std::size_t i = 0; i < trace.ops.size();) {
    ScheduleTrace without = trace;
    without.ops.erase(without.ops.begin() + static_cast<std::ptrdiff_t>(i));
    if (still_violates(without)) {
      trace = without;
    } else {
      ++i;
    }
  }

  // The shrink loop's last run may have been a non-violating probe;
  // re-establish the reported views from the final trace.
  const Eval final_eval = eval_schedule(scenario, resolved, trace, horizon, false);
  ++*shrink_runs;
  *views = final_eval.views;
  return trace;
}

}  // namespace bsm::sched::detail

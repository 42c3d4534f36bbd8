// Delivery-schedule case group — the measurements behind src/sched:
//
//   sched/sync_null_baseline vs sched/sync_policy_hook — the same grid
//   with no policy installed vs a ScriptedPolicy replaying the empty trace
//   (every envelope delivered at rank 0, no stall). The pair quantifies
//   the policy code path's overhead (per-envelope verdicts, merge, stable
//   sort) AND proves transcript preservation in the artifact: both cases
//   carry the identical digest in BENCH_results.json, and the hook case
//   cross-checks equality itself.
//
//   sched/random_delay_sweep — a (setting x schedule-seed) fan-out under
//   seeded in-envelope RandomDelay schedules on the work-stealing sweep
//   scheduler: the subsystem's steady-state throughput shape.
//
//   sched/explorer — sched::explore() on a k=2 scenario (bounded
//   iterative-deepening + trail-digest pruning): schedules/sec, with the
//   report counts folded into the digest so a search-shape change is a
//   visible digest change.
//
//   sched/fuzz_loop / sched/fuzz_deep_find — the greybox corpus loop.
//   fuzz_loop runs the in-envelope menu (violations would be library
//   bugs) and measures executions/sec with the coverage frontier folded
//   into the digest; fuzz_deep_find hunts the engineered 3-op violation
//   beyond the envelope (liars battery, k=2/1/0 — exhaustively clean at
//   depths 1-2) and asserts the fuzzer still finds and shrinks it, so a
//   search-regression shows up as `ok: false`, not just a slow number.
#include <cstdint>
#include <memory>
#include <vector>

#include "cases/cases.hpp"
#include "cases/digest.hpp"
#include "common/hash.hpp"
#include "core/bench.hpp"
#include "core/sweep.hpp"
#include "sched/explorer.hpp"
#include "sched/fuzz.hpp"
#include "sched/policy.hpp"

namespace bsm::benchcases {
namespace {

using namespace bsm;
using core::BenchContext;
using core::BenchRun;

/// The fixed grid both synchronous-overhead cases run: big enough that the
/// per-envelope verdict cost is visible, small enough for the smoke slice.
[[nodiscard]] std::vector<core::ScenarioSpec> overhead_cells(std::uint64_t seeds) {
  core::SweepGrid grid;
  grid.ks = {3};
  grid.batteries = {core::Battery::Silent, core::Battery::Liars};
  grid.seeds.clear();
  for (std::uint64_t s = 1; s <= seeds; ++s) grid.seeds.push_back(s);
  return grid.cells();
}

[[nodiscard]] BenchRun run_overhead(const BenchContext& ctx, std::uint64_t seeds,
                                    bool install_policy) {
  const auto cells = overhead_cells(seeds);
  const auto outcomes = core::run_cells(
      cells,
      [install_policy](const core::ScenarioSpec& cell) -> std::optional<core::RunOutcome> {
        if (!core::solvable(cell.config)) return std::nullopt;
        auto spec = core::to_run_spec(cell);
        if (install_policy) {
          spec.policy = std::make_unique<sched::ScriptedPolicy>(sched::ScheduleTrace{});
        }
        return core::run_bsm(std::move(spec));
      },
      {.threads = ctx.threads});

  BenchRun run;
  run.cells = cells.size();
  for (const auto& outcome : outcomes) {
    if (!outcome.has_value()) continue;
    run.rounds += outcome->rounds;
    run.messages += outcome->traffic.messages;
    run.bytes += outcome->traffic.bytes;
    run.ok &= outcome->report.all();
    run.digest = digest_outcome(run.digest, *outcome);
  }
  return run;
}

/// The (setting x schedule-seed) fan-out: every solvable setting repeated
/// under `sched_seeds` distinct in-envelope RandomDelay streams.
[[nodiscard]] BenchRun run_delay_sweep(const BenchContext& ctx, std::uint64_t seeds,
                                       std::uint64_t sched_seeds) {
  core::SweepGrid grid;
  grid.ks = {2, 3};
  grid.batteries = {core::Battery::Silent, core::Battery::Liars, core::Battery::Omission};
  grid.seeds.clear();
  for (std::uint64_t s = 1; s <= seeds; ++s) grid.seeds.push_back(s);
  sched::PolicyDesc delay;
  delay.kind = sched::PolicyDesc::Kind::RandomDelay;
  delay.max_delay = 2;
  delay.delay_permille = 400;
  grid.scheds = core::schedule_axis(delay, sched_seeds);
  const auto cells = grid.cells();

  core::OracleCache cache;
  core::SweepOptions opts{.threads = ctx.threads};
  opts.oracle = &cache;
  core::SweepStats stats;
  const auto results = core::run_sweep(cells, opts, &stats);

  BenchRun run;
  run.cells = cells.size();
  for (const auto& cell : results) {
    run.digest = hash_combine(run.digest, splitmix64(cell.solvable));
    if (cell.solvable) run.ok &= cell.ok();
    if (!cell.outcome.has_value()) continue;
    run.rounds += cell.outcome->rounds;
    run.messages += cell.outcome->traffic.messages;
    run.bytes += cell.outcome->traffic.bytes;
    run.digest = digest_outcome(run.digest, *cell.outcome);
    run.digest = hash_combine(run.digest, splitmix64(cell.outcome->traffic.delivered_messages));
  }
  // The schedule axis must share one oracle entry per setting: the fan-out
  // multiplies cells, not derivations.
  run.ok &= stats.oracle.lookups() == cells.size();
  run.ok &= sched_seeds <= 1 || stats.oracle.hit_rate() > 0.5;
  return run;
}

[[nodiscard]] BenchRun run_explorer(const BenchContext& ctx, std::size_t max_depth,
                                    std::size_t max_schedules) {
  core::ScenarioSpec scenario;
  scenario.config = core::BsmConfig{net::TopologyKind::FullyConnected, true, 2, 1, 0};
  core::apply_battery(scenario, core::Battery::Silent, 1);

  sched::ExplorerOptions opts;
  opts.max_depth = max_depth;
  opts.max_delay = 2;
  opts.max_schedules = max_schedules;
  opts.threads = ctx.threads;
  const auto report = sched::explore(scenario, opts);

  BenchRun run;
  run.cells = report.explored + report.shrink_runs;
  run.ok &= report.all_satisfied();  // in-envelope menu: violations are bugs
  run.digest = hash_combine(run.digest, splitmix64(report.explored));
  run.digest = hash_combine(run.digest, splitmix64(report.pruned));
  run.digest = hash_combine(run.digest, splitmix64(report.violations));
  run.digest = hash_combine(run.digest, splitmix64(report.depth_reached));
  return run;
}

/// The greybox loop over the in-envelope menu: every exec must satisfy
/// the properties (the envelope is the paper's guarantee), so ok doubles
/// as a correctness gate while the rate measures execs/sec.
[[nodiscard]] BenchRun run_fuzz_loop(const BenchContext& ctx, std::size_t max_execs) {
  core::ScenarioSpec scenario;
  scenario.config = core::BsmConfig{net::TopologyKind::FullyConnected, true, 2, 1, 1};
  core::apply_battery(scenario, core::Battery::Silent, 1);

  sched::FuzzerOptions opts;
  opts.max_execs = max_execs;
  opts.threads = ctx.threads;
  sched::Fuzzer fuzzer(scenario, opts);
  const auto report = fuzzer.run();

  BenchRun run;
  run.cells = report.execs + report.shrink_runs;
  run.ok &= report.all_satisfied();  // in-envelope menu: violations are bugs
  run.digest = hash_combine(run.digest, splitmix64(report.execs));
  run.digest = hash_combine(run.digest, splitmix64(report.coverage));
  run.digest = hash_combine(run.digest, splitmix64(report.corpus_size));
  run.digest = hash_combine(run.digest, splitmix64(report.interesting));
  return run;
}

/// The engineered deep hunt (see tests/fuzz_test.cpp): the minimal
/// beyond-envelope violation under liars needs 3 ops, unreachable for
/// iterative deepening at this budget. ok asserts the find AND the
/// shrink; the digest pins the counterexample itself.
[[nodiscard]] BenchRun run_fuzz_deep_find(const BenchContext& ctx, std::size_t max_execs) {
  core::ScenarioSpec scenario;
  scenario.config = core::BsmConfig{net::TopologyKind::FullyConnected, true, 2, 1, 0};
  core::apply_battery(scenario, core::Battery::Liars, 1);

  sched::FuzzerOptions opts;
  opts.corrupt_adjacent_only = false;
  opts.allow_reorder = false;
  opts.max_delay = 1;
  opts.max_execs = max_execs;
  opts.threads = ctx.threads;
  sched::Fuzzer fuzzer(scenario, opts);
  const auto report = fuzzer.run();

  BenchRun run;
  run.cells = report.execs + report.shrink_runs;
  run.ok &= report.violations >= 1;
  run.ok &= report.counterexample.has_value() && report.counterexample->ops.size() >= 3;
  run.digest = hash_combine(run.digest, splitmix64(report.execs));
  run.digest = hash_combine(run.digest, splitmix64(report.coverage));
  run.digest = hash_combine(run.digest, splitmix64(report.violations));
  if (report.counterexample.has_value()) {
    run.digest = hash_combine(run.digest, report.counterexample->digest());
  }
  return run;
}

/// The round-limit guard under a never-delivering stall wall: each cell
/// must come back as a structured round_limit_hit verdict (never a hang),
/// and the guard cost per starved engine round is the measured rate.
[[nodiscard]] BenchRun run_round_limit(const BenchContext& ctx, std::uint64_t seeds,
                                       Round max_rounds) {
  std::vector<core::ScenarioSpec> cells;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    core::ScenarioSpec cell;
    cell.config = core::BsmConfig{net::TopologyKind::FullyConnected, true, 2, 1, 0};
    cell.input_seed = seed;
    cell.pki_seed = seed + 1;
    core::apply_battery(cell, core::Battery::Silent, seed);
    cell.sched.kind = sched::PolicyDesc::Kind::Scripted;
    cell.sched.trace = *sched::ScheduleTrace::parse("stall@0:0>0*1000000");
    cell.max_rounds = max_rounds;
    cells.push_back(std::move(cell));
  }
  const auto results = core::run_sweep(cells, {.threads = ctx.threads});

  BenchRun run;
  run.cells = cells.size();
  for (const auto& cell : results) {
    if (!cell.outcome.has_value()) continue;
    const auto& out = *cell.outcome;
    run.rounds += max_rounds;  // engine rounds consumed: the guarded work
    run.ok &= out.round_limit_hit && !out.terminated;
    run.digest = digest_outcome(run.digest, out);
  }
  return run;
}

}  // namespace

void register_sched() {
  core::register_bench({"sched/sync_null_baseline",
                        [](const BenchContext& ctx) { return run_overhead(ctx, 24, false); }});
  // Same workload, policy installed: its digest in BENCH_results.json must
  // equal sync_null_baseline's — transcript preservation, visible in the
  // artifact (and enforced by tests/sched_test.cpp).
  core::register_bench({"sched/sync_policy_hook",
                        [](const BenchContext& ctx) { return run_overhead(ctx, 24, true); }});
  core::register_bench({"sched/random_delay_sweep",
                        [](const BenchContext& ctx) { return run_delay_sweep(ctx, 6, 4); }});
  core::register_bench({"sched/explorer",
                        [](const BenchContext& ctx) { return run_explorer(ctx, 2, 4096); }});
  core::register_bench({"sched/fuzz_loop",
                        [](const BenchContext& ctx) { return run_fuzz_loop(ctx, 2048); }});
  core::register_bench({"sched/fuzz_deep_find",
                        [](const BenchContext& ctx) { return run_fuzz_deep_find(ctx, 4096); }});
  core::register_bench({"sched/fuzz_smoke", [](const BenchContext& ctx) {
                          // The CI smoke slice: a trimmed corpus loop plus the
                          // deep hunt (cheap — the find lands around exec 100).
                          BenchRun run = run_fuzz_loop(ctx, 192);
                          const BenchRun deep = run_fuzz_deep_find(ctx, 1024);
                          run.cells += deep.cells;
                          run.ok &= deep.ok;
                          run.digest = hash_combine(run.digest, deep.digest);
                          return run;
                        }});
  core::register_bench({"sched/round_limit",
                        [](const BenchContext& ctx) { return run_round_limit(ctx, 16, 256); }});
  core::register_bench({"sched/smoke", [](const BenchContext& ctx) {
                          BenchRun run = run_explorer(ctx, 1, 128);
                          const BenchRun sweep = run_delay_sweep(ctx, 1, 2);
                          run.cells += sweep.cells;
                          run.ok &= sweep.ok;
                          run.digest = hash_combine(run.digest, sweep.digest);
                          run.messages += sweep.messages;
                          run.bytes += sweep.bytes;
                          run.rounds += sweep.rounds;
                          return run;
                        }});
}

}  // namespace bsm::benchcases

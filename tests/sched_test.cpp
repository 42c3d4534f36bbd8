// The delivery-schedule subsystem's contracts:
//
//  1. Transcript preservation — the synchronous schedule (null policy OR
//     an installed ScriptedPolicy replaying the empty trace) reproduces the
//     engine's historical transcripts byte for byte, full RunOutcome
//     equality included.
//  2. Schedule determinism — the same PolicyDesc seed yields byte-identical
//     transcripts across runs and across sweep thread counts.
//  3. The explorer — finds and minimizes a counterexample trace on a
//     scenario perturbed beyond its omission tolerance, certifies the
//     in-envelope menu violation-free, prunes equivalent schedules, and
//     reports thread-count-independent numbers.
//  4. Replay — a serialized ScheduleTrace parses back and reproduces the
//     violating run bit for bit.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/sweep.hpp"
#include "sched/explorer.hpp"
#include "sched/policy.hpp"
#include "sched/trace.hpp"

namespace bsm {
namespace {

using core::AdversaryDesc;
using core::Battery;
using core::ScenarioSpec;
using sched::PolicyDesc;
using sched::ScheduleOp;
using sched::ScheduleTrace;

[[nodiscard]] ScenarioSpec base_scenario(std::uint32_t k, std::uint32_t tl, std::uint32_t tr,
                                         Battery battery, std::uint64_t seed = 1) {
  ScenarioSpec scenario;
  scenario.config = core::BsmConfig{net::TopologyKind::FullyConnected, true, k, tl, tr};
  scenario.input_seed = seed;
  scenario.pki_seed = seed + 1;
  core::apply_battery(scenario, battery, seed);
  return scenario;
}

// ------------------------------------------------------------- trace codec

TEST(ScheduleTrace, SerializeParseRoundTrips) {
  ScheduleTrace trace;
  trace.ops.push_back({ScheduleOp::Kind::Drop, 3, 0, 2, 1});
  trace.ops.push_back({ScheduleOp::Kind::Delay, 4, 1, 3, 2});
  trace.ops.push_back({ScheduleOp::Kind::Rank, 5, 2, 0, 7});

  const std::string text = trace.serialize();
  EXPECT_EQ(text, "drop@3:0>2;delay@4:1>3*2;rank@5:2>0*7");
  const auto parsed = ScheduleTrace::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, trace);
  EXPECT_EQ(parsed->digest(), trace.digest());

  const auto empty = ScheduleTrace::parse("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(ScheduleTrace, ParseRejectsJunk) {
  for (const char* junk :
       {"drop", "drop@", "drop@1", "drop@1:2", "drop@1:2>", "drop@1:2>x", "nuke@1:0>1",
        "delay@1:0>1", "rank@1:0>1", "delay@1:0>1*0", "drop@1:0>1*", "drop@-1:0>1",
        "drop@1:0>1;;drop@2:0>1", "drop@99999999999:0>1", "drop@1:0>1;",
        "drop@1:0>1*7"}) {
    EXPECT_FALSE(ScheduleTrace::parse(junk).has_value()) << junk;
  }
  // Any u32 party id parses, but a policy refuses one beyond the 128 ids a
  // PartySet (and so every market) holds.
  const auto far = ScheduleTrace::parse("drop@0:4000000000>1");
  ASSERT_TRUE(far.has_value());
  EXPECT_THROW(sched::ScriptedPolicy{*far}, std::logic_error);
}

// -------------------------------------------------- transcript preservation

TEST(SchedPolicy, SynchronousPolicyIsTranscriptIdentical) {
  // Null policy (the engine fast path) vs an installed ScriptedPolicy
  // with an empty trace (every verdict Deliver, rank 0): the policy code
  // path (verdicts, merge, stable sort) must not move a single byte. Full
  // RunOutcome equality covers view hashes, decisions, property verdicts,
  // and every traffic counter.
  const auto scenario = base_scenario(3, 1, 1, Battery::Liars);

  auto fast = core::run_bsm(core::to_run_spec(scenario));
  auto spec = core::to_run_spec(scenario);
  ASSERT_EQ(spec.policy, nullptr) << "synchronous desc must materialize the null fast path";
  spec.policy = std::make_unique<sched::ScriptedPolicy>(sched::ScheduleTrace{});
  const auto via_policy = core::run_bsm(std::move(spec));

  EXPECT_TRUE(fast == via_policy) << "the empty-trace policy changed the transcript";
}

TEST(SchedPolicy, DefaultGridIsUnchangedByTheScheduleAxis) {
  // A SweepGrid that never sets scheds must produce cell-for-cell the same
  // scenarios as before the axis existed (one synchronous desc).
  core::SweepGrid grid;
  grid.ks = {2};
  grid.seeds = {1, 2};
  const auto cells = grid.cells();
  ASSERT_FALSE(cells.empty());
  for (const auto& cell : cells) {
    EXPECT_TRUE(cell.sched.is_synchronous());
    EXPECT_TRUE(cell.sched == PolicyDesc{});
  }
}

// ----------------------------------------------------- schedule determinism

[[nodiscard]] std::vector<ScenarioSpec> delay_grid() {
  core::SweepGrid grid;
  grid.ks = {2, 3};
  grid.seeds = {1, 2};
  grid.batteries = {Battery::Silent, Battery::Liars};
  PolicyDesc delay;
  delay.kind = PolicyDesc::Kind::RandomDelay;
  delay.max_delay = 2;
  delay.delay_permille = 400;
  grid.scheds = core::schedule_axis(delay, 3);
  return grid.cells();
}

TEST(SchedPolicy, SameSeedSameTranscriptAcrossRunsAndThreadCounts) {
  const auto cells = delay_grid();
  ASSERT_GE(cells.size(), 64U);

  const auto serial = core::run_sweep(cells, {.threads = 1});
  const auto parallel = core::run_sweep(cells, {.threads = 4});
  const auto again = core::run_sweep(cells, {.threads = 4});

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].outcome.has_value(), parallel[i].outcome.has_value());
    if (!serial[i].outcome.has_value()) continue;
    EXPECT_TRUE(*serial[i].outcome == *parallel[i].outcome)
        << "thread count changed a scheduled transcript at " << cells[i].config.describe();
    EXPECT_TRUE(*parallel[i].outcome == *again[i].outcome)
        << "repeated run changed a scheduled transcript at " << cells[i].config.describe();
  }
}

TEST(SchedPolicy, DifferentScheduleSeedsPerturbDifferently) {
  // The (setting x schedule-seed) axis must actually fan out: with a high
  // delay probability over the corrupt-adjacent envelope, at least one
  // pair of schedule seeds must produce different transcripts somewhere.
  const auto cells = delay_grid();
  const auto results = core::run_sweep(cells, {.threads = 1});
  bool any_difference = false;
  for (std::size_t i = 0; i + 1 < results.size(); ++i) {
    const auto& a = results[i];
    const auto& b = results[i + 1];
    if (!a.outcome.has_value() || !b.outcome.has_value()) continue;
    if (a.scenario.sched.kind != PolicyDesc::Kind::RandomDelay) continue;
    const bool same_setting = a.scenario.config.describe() == b.scenario.config.describe() &&
                              a.scenario.input_seed == b.scenario.input_seed;
    if (same_setting && a.scenario.sched.seed != b.scenario.sched.seed &&
        a.outcome->view_hashes != b.outcome->view_hashes) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference) << "every schedule seed produced the identical transcript";
}

TEST(SchedPolicy, InEnvelopeSchedulesPreserveProperties) {
  // Perturbing only corrupt-adjacent channels is within the byzantine
  // guarantee: every solvable cell must keep all four properties under
  // RandomDelay and TargetedOmission schedules alike.
  core::SweepGrid grid;
  grid.ks = {2, 3};
  grid.seeds = {1, 2};
  grid.batteries = {Battery::Silent, Battery::Liars, Battery::Omission};
  PolicyDesc omit;
  omit.kind = PolicyDesc::Kind::TargetedOmission;
  omit.omission_budget = 3;
  grid.scheds = {PolicyDesc{}, omit};
  const auto results = core::run_sweep(grid.cells(), {.threads = 4});
  std::size_t ran = 0;
  for (const auto& cell : results) {
    if (!cell.outcome.has_value()) continue;
    ++ran;
    EXPECT_TRUE(cell.outcome->report.all())
        << "in-envelope schedule broke properties at " << cell.scenario.config.describe();
  }
  EXPECT_GT(ran, 0U);
}

TEST(SchedPolicy, TargetedOmissionRespectsItsBudget) {
  // The policy may drop at most omission_budget deliveries per target.
  auto scenario = base_scenario(3, 1, 1, Battery::Silent);
  scenario.sched.kind = PolicyDesc::Kind::TargetedOmission;
  scenario.sched.omission_budget = 2;
  const auto cell = core::run_scenario(scenario);
  ASSERT_TRUE(cell.outcome.has_value());
  EXPECT_LE(cell.outcome->traffic.dropped_messages,
            2ULL * scenario.adversaries.size());
  EXPECT_GT(cell.outcome->traffic.dropped_messages, 0U)
      << "an omission schedule over live channels should drop something";
}

// ----------------------------------------------------------------- explorer

TEST(Explorer, InEnvelopeScheduleSpaceIsViolationFree) {
  // Drops and delays on corrupt-adjacent channels are schedules the
  // protocol must tolerate; the explorer certifies a bounded slice of them.
  sched::ExplorerOptions opts;
  opts.max_depth = 2;
  const auto report = sched::explore(base_scenario(2, 1, 0, Battery::Silent), opts);
  EXPECT_GT(report.explored, 10U);
  EXPECT_EQ(report.violations, 0U);
  EXPECT_TRUE(report.all_satisfied());
  EXPECT_FALSE(report.counterexample.has_value());
}

TEST(Explorer, PrunesEquivalentSchedules) {
  // A delay past the horizon is indistinguishable from a drop: the trail
  // digests collide and the duplicate schedule must be pruned.
  sched::ExplorerOptions opts;
  opts.max_depth = 1;
  opts.max_delay = 8;
  const auto report = sched::explore(base_scenario(2, 1, 0, Battery::Silent), opts);
  EXPECT_GT(report.pruned, 0U);
}

TEST(Explorer, ReportIsThreadCountIndependent) {
  sched::ExplorerOptions serial;
  serial.max_depth = 2;
  serial.threads = 1;
  sched::ExplorerOptions parallel = serial;
  parallel.threads = 4;
  const auto scenario = base_scenario(2, 1, 0, Battery::Liars);
  const auto a = sched::explore(scenario, serial);
  const auto b = sched::explore(scenario, parallel);
  EXPECT_EQ(a.explored, b.explored);
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.depth_reached, b.depth_reached);
}

/// The engineered beyond-tolerance scenario: nobody is corrupted, so the
/// setting tolerates zero faults, and the explorer is allowed to perturb
/// honest-honest channels — one dropped preference message must break a
/// property.
[[nodiscard]] sched::ExplorerReport beyond_tolerance_report() {
  sched::ExplorerOptions opts;
  opts.max_depth = 2;
  opts.corrupt_adjacent_only = false;
  return sched::explore(base_scenario(2, 0, 0, Battery::Silent), opts);
}

TEST(Explorer, FindsAndMinimizesACounterexampleBeyondTolerance) {
  const auto report = beyond_tolerance_report();
  EXPECT_GT(report.violations, 0U);
  EXPECT_FALSE(report.all_satisfied());
  ASSERT_TRUE(report.counterexample.has_value());
  ASSERT_FALSE(report.counterexample->empty());
  ASSERT_FALSE(report.counterexample_views.empty());

  // 1-minimality: the greedy shrink re-verified every removal, so deleting
  // any single remaining op must make the violation disappear.
  const auto scenario = base_scenario(2, 0, 0, Battery::Silent);
  for (std::size_t i = 0; i < report.counterexample->ops.size(); ++i) {
    ScenarioSpec weakened = scenario;
    weakened.sched.kind = PolicyDesc::Kind::Scripted;
    weakened.sched.trace = *report.counterexample;
    weakened.sched.trace.ops.erase(weakened.sched.trace.ops.begin() +
                                   static_cast<std::ptrdiff_t>(i));
    const auto cell = core::run_scenario(weakened);
    ASSERT_TRUE(cell.outcome.has_value());
    EXPECT_TRUE(cell.outcome->report.all())
        << "op " << i << " of the minimized trace is redundant: "
        << report.counterexample->serialize();
  }
}

TEST(Explorer, SerializedCounterexampleReplaysBitForBit) {
  const auto report = beyond_tolerance_report();
  ASSERT_TRUE(report.counterexample.has_value());

  // Round-trip through the text form — the path a trace takes through
  // JSON reports and `bsm_cli explore --replay`.
  const std::string text = report.counterexample->serialize();
  const auto parsed = ScheduleTrace::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(*parsed == *report.counterexample);

  ScenarioSpec replay = base_scenario(2, 0, 0, Battery::Silent);
  replay.sched.kind = PolicyDesc::Kind::Scripted;
  replay.sched.trace = *parsed;
  const auto first = core::run_scenario(replay);
  const auto second = core::run_scenario(replay);
  ASSERT_TRUE(first.outcome.has_value());
  ASSERT_TRUE(second.outcome.has_value());

  EXPECT_FALSE(first.outcome->report.all()) << "the replayed schedule must still violate";
  EXPECT_EQ(first.outcome->view_hashes, report.counterexample_views)
      << "replay diverged from the explorer's violating run";
  EXPECT_TRUE(*first.outcome == *second.outcome) << "replay is not deterministic";
}

TEST(Explorer, RefusesNonSynchronousScenarios) {
  auto scenario = base_scenario(2, 1, 0, Battery::Silent);
  scenario.sched.kind = PolicyDesc::Kind::RandomDelay;
  EXPECT_THROW((void)sched::explore(scenario), std::logic_error);
}

TEST(Explorer, RespectsTheScheduleCap) {
  sched::ExplorerOptions opts;
  opts.max_depth = 3;
  opts.corrupt_adjacent_only = false;
  opts.max_schedules = 50;
  const auto report = sched::explore(base_scenario(2, 1, 0, Battery::Silent), opts);
  EXPECT_LE(report.explored, 50U);

  // depth_reached counts only a depth whose wave ran a schedule. At a cap
  // of 64 the runs are the root, 18 schedules at depth 1 and 45 at depth 2,
  // so a depth bound of 3 reaches depth 2, as a bound of 2 does; a cap of 1
  // runs the root alone.
  opts.corrupt_adjacent_only = true;
  opts.max_delay = 2;
  opts.max_schedules = 64;
  for (const std::size_t max_depth : {2U, 3U}) {
    opts.max_depth = max_depth;
    const auto capped = sched::explore(base_scenario(2, 1, 0, Battery::Silent), opts);
    EXPECT_EQ(capped.explored, 64U) << max_depth;
    EXPECT_TRUE(capped.truncated) << max_depth;
    EXPECT_EQ(capped.depth_reached, 2U) << max_depth;
  }
  opts.max_schedules = 1;
  const auto root_only = sched::explore(base_scenario(2, 1, 0, Battery::Silent), opts);
  EXPECT_EQ(root_only.explored, 1U);
  EXPECT_TRUE(root_only.truncated);
  EXPECT_EQ(root_only.depth_reached, 0U);

  // The root always runs, so a cap of 0 could not hold: refused.
  opts.max_schedules = 0;
  EXPECT_THROW((void)sched::explore(base_scenario(2, 1, 0, Battery::Silent), opts),
               std::logic_error);
}

}  // namespace
}  // namespace bsm

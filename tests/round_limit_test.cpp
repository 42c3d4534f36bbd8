// The engine-round clock's contracts, under scripted stall ops:
//
//  1. Stall codec — stall ops round-trip through the ScheduleTrace text
//     form, malformed stall entries are rejected, and a ScriptedPolicy's
//     stall budget is the sum of its stall ops.
//  2. Round-limit guard — a never-delivering schedule returns a structured
//     round_limit_hit outcome instead of hanging, under run_scenario and
//     run_sweep at multiple thread counts; a generous cap moves nothing and
//     a tight one cuts a synchronous run off.
#include <gtest/gtest.h>

#include "core/sweep.hpp"
#include "sched/policy.hpp"
#include "sched/trace.hpp"

namespace bsm {
namespace {

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

// ------------------------------------------------------------- stall codec

TEST(StallTrace, SerializeParseRoundTrips) {
  ScheduleTrace trace;
  trace.ops.push_back({ScheduleOp::Kind::Stall, 2, 0, 0, 3});
  trace.ops.push_back({ScheduleOp::Kind::Drop, 3, 0, 2, 1});

  const std::string text = trace.serialize();
  EXPECT_EQ(text, "stall@2:0>0*3;drop@3:0>2");
  const auto parsed = ScheduleTrace::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, trace);
  EXPECT_EQ(parsed->digest(), trace.digest());
}

TEST(StallTrace, ParseRejectsJunkStalls) {
  for (const char* junk : {"stall@1:0>0", "stall@1:0>0*0", "stall@1:0>0*", "stall@:0>0*1",
                           "stall@1:0>0*99999999999"}) {
    EXPECT_FALSE(ScheduleTrace::parse(junk).has_value()) << junk;
  }
}

TEST(StallTrace, ScriptedPolicySumsStallBudgets) {
  const auto trace = ScheduleTrace::parse("stall@0:0>0*2;stall@1:0>0*3");
  ASSERT_TRUE(trace.has_value());
  const sched::ScriptedPolicy policy(*trace);
  EXPECT_EQ(policy.stall_budget(), 5U);
}

// --------------------------------------------------------- round-limit guard

TEST(RoundLimit, NeverDeliverScheduleReportsRoundLimitHit) {
  auto scenario = base_scenario(2, 1, 0, Battery::Silent);
  scenario.sched.kind = PolicyDesc::Kind::Scripted;
  const auto stalls = ScheduleTrace::parse("stall@0:0>0*100000");
  ASSERT_TRUE(stalls.has_value());
  scenario.sched.trace = *stalls;
  scenario.max_rounds = 20;

  const auto cell = core::run_scenario(scenario);
  ASSERT_TRUE(cell.outcome.has_value());
  EXPECT_TRUE(cell.outcome->round_limit_hit);
  EXPECT_FALSE(cell.outcome->terminated);
  EXPECT_EQ(cell.outcome->rounds_to_termination, 0U);
  EXPECT_EQ(cell.outcome->rounds, 0U) << "a round-0 stall wall must freeze the protocol clock";
}

TEST(RoundLimit, NeverDeliverSweepIsStructuredAtEveryThreadCount) {
  std::vector<ScenarioSpec> cells;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto scenario = base_scenario(2, 1, 0, Battery::Silent, seed);
    scenario.sched.kind = PolicyDesc::Kind::Scripted;
    scenario.sched.trace = *ScheduleTrace::parse("stall@0:0>0*100000");
    scenario.max_rounds = 16;
    cells.push_back(std::move(scenario));
  }

  const auto serial = core::run_sweep(cells, {.threads = 1});
  const auto parallel = core::run_sweep(cells, {.threads = 4});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].outcome.has_value());
    EXPECT_TRUE(serial[i].outcome->round_limit_hit);
    EXPECT_FALSE(serial[i].outcome->terminated);
    ASSERT_TRUE(parallel[i].outcome.has_value());
    EXPECT_TRUE(*serial[i].outcome == *parallel[i].outcome)
        << "thread count changed a round-limit outcome";
  }
}

TEST(RoundLimit, GuardIsInertWhenGenerous) {
  // An explicit cap no schedule can reach must not move a byte relative to
  // the default (deadline + stall budget) guard.
  const auto scenario = base_scenario(2, 1, 0, Battery::Liars);
  const auto baseline = core::run_scenario(scenario);
  ScenarioSpec capped = scenario;
  capped.max_rounds = 100000;
  const auto guarded = core::run_scenario(capped);
  ASSERT_TRUE(baseline.outcome.has_value());
  ASSERT_TRUE(guarded.outcome.has_value());
  EXPECT_TRUE(*baseline.outcome == *guarded.outcome);
}

TEST(RoundLimit, TightCapCutsOffASynchronousRun) {
  auto scenario = base_scenario(2, 1, 0, Battery::Silent);
  scenario.max_rounds = 2;  // below the protocol deadline
  const auto cell = core::run_scenario(scenario);
  ASSERT_TRUE(cell.outcome.has_value());
  EXPECT_TRUE(cell.outcome->round_limit_hit);
  EXPECT_FALSE(cell.outcome->terminated);
  EXPECT_EQ(cell.outcome->rounds, 2U);
}

}  // namespace
}  // namespace bsm

// The greybox schedule fuzzer's contracts:
//
//  1. Mutation soundness — every mutated trace serializes, parses back
//     equal, is canonically ordered with one op per slot, and stays
//     inside the Fuzzer's FaultEnvelope, across >= 10^4 seeded
//     mutations (the property battery ISSUE acceptance asks for).
//  2. Determinism — the same seed yields a field-identical FuzzReport
//     at 1 vs N threads, violation or not.
//  3. Corpus persistence — save/load round-trips every trace, load
//     order is name-sorted, re-saving writes zero new files
//     (digest-keyed, content-addressed dedup), and a directory that
//     cannot be created saves nothing and says so instead of throwing.
//  4. The engineered deep violation — on k=2/tl=1/tr=0 under the liars
//     battery (workload seed 1) the minimal beyond-envelope violation
//     needs 3 ops (exhaustively verified: depths 1 and 2 are clean), so
//     iterative deepening burns its whole 4096-run budget without
//     finding it while the fuzzer gets there in a fraction; the shrunken
//     counterexample is 1-minimal and replays bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unistd.h>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/sweep.hpp"
#include "sched/explorer.hpp"
#include "sched/fuzz.hpp"
#include "sched/trace.hpp"

namespace bsm {
namespace {

using core::Battery;
using core::ScenarioSpec;
using sched::Fuzzer;
using sched::FuzzerOptions;
using sched::FuzzReport;
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

/// The engineered deep-violation scenario: liars battery on k=2/1/0.
/// Exhaustive exploration of the drop+delay(1) beyond-envelope space
/// shows zero violations at depths 1 and 2 and 56 at depth 3, so every
/// 3-op violating trace in that space is automatically 1-minimal.
[[nodiscard]] ScenarioSpec deep_scenario() { return base_scenario(2, 1, 0, Battery::Liars); }

/// Fuzzer options matching the explorer's default op menu (drop +
/// delay-by-1) so the two searches race over the same schedule space.
[[nodiscard]] FuzzerOptions deep_options() {
  FuzzerOptions opts;
  opts.corrupt_adjacent_only = false;
  opts.allow_reorder = false;
  opts.max_delay = 1;
  opts.max_execs = 4096;
  return opts;
}

[[nodiscard]] std::string fresh_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("bsm_fuzz_test_") + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Field-by-field report equality (FuzzReport has no operator==; a test
/// that compares every field keeps new fields from dodging the check).
void expect_reports_equal(const FuzzReport& a, const FuzzReport& b) {
  EXPECT_EQ(a.execs, b.execs);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  EXPECT_EQ(a.corpus_loaded, b.corpus_loaded);
  EXPECT_EQ(a.corpus_saved, b.corpus_saved);
  EXPECT_EQ(a.corpus_error, b.corpus_error);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.interesting, b.interesting);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.shrink_runs, b.shrink_runs);
  ASSERT_EQ(a.counterexample.has_value(), b.counterexample.has_value());
  if (a.counterexample.has_value()) {
    EXPECT_EQ(a.counterexample->serialize(), b.counterexample->serialize());
  }
  EXPECT_EQ(a.counterexample_views, b.counterexample_views);
}

// ------------------------------------------------------- mutation battery

TEST(FuzzMutation, TenThousandMutationsStayInsideTheEnvelope) {
  const auto scenario = base_scenario(2, 1, 0, Battery::Silent);
  FuzzerOptions opts;
  opts.corrupt_adjacent_only = false;  // targets = every party
  Fuzzer fuzzer(scenario, opts);
  ASSERT_FALSE(fuzzer.menu().empty()) << "root run must mine a delivery-group menu";

  Rng rng(0xf0221234u);
  std::vector<ScheduleTrace> pool = {ScheduleTrace{}};
  for (int i = 0; i < 10'000; ++i) {
    const ScheduleTrace& base = pool[rng.below(pool.size())];
    const ScheduleTrace* splice =
        pool.size() > 1 && rng.below(4) == 0 ? &pool[rng.below(pool.size())] : nullptr;
    const ScheduleTrace mutated = fuzzer.mutate(base, splice, rng);

    // Round-trips the text codec bit for bit.
    const std::string text = mutated.serialize();
    const auto parsed = ScheduleTrace::parse(text);
    ASSERT_TRUE(parsed.has_value()) << "unparseable mutation: " << text;
    ASSERT_TRUE(*parsed == mutated) << "lossy round-trip: " << text;

    // Inside the envelope and under the op cap.
    ASSERT_TRUE(Fuzzer::within_envelope(mutated, fuzzer.envelope()))
        << "escaped the envelope: " << text;
    ASSERT_LE(mutated.ops.size(), opts.max_ops);

    // Canonical order with one op per (round, from, to) slot.
    for (std::size_t j = 1; j < mutated.ops.size(); ++j) {
      const ScheduleOp& prev = mutated.ops[j - 1];
      const ScheduleOp& op = mutated.ops[j];
      ASSERT_TRUE(prev < op) << "non-canonical op order: " << text;
      ASSERT_FALSE(prev.round == op.round && prev.from == op.from && prev.to == op.to)
          << "duplicate slot: " << text;
    }

    // Evolve the pool so later mutations start from deeper bases.
    if (pool.size() < 64) {
      pool.push_back(mutated);
    } else {
      pool[rng.below(pool.size())] = mutated;
    }
  }
}

TEST(FuzzMutation, RespectsTheCorruptAdjacentEnvelope) {
  const auto scenario = base_scenario(2, 1, 1, Battery::Silent);
  Fuzzer fuzzer(scenario, FuzzerOptions{});  // corrupt_adjacent_only = true

  ASSERT_EQ(scenario.adversaries.size(), 2U);
  Rng rng(7);
  for (int i = 0; i < 2'000; ++i) {
    const ScheduleTrace mutated = fuzzer.mutate(ScheduleTrace{}, nullptr, rng);
    for (const ScheduleOp& op : mutated.ops) {
      EXPECT_TRUE(fuzzer.envelope().covers(op.from, op.to))
          << "op touches an honest-honest channel: " << mutated.serialize();
    }
  }
}

TEST(FuzzMutation, WithinEnvelopeRejectsEscapes) {
  net::FaultEnvelope envelope;
  envelope.targets = core::PartySet{0};
  envelope.max_delay = 2;
  envelope.omission_budget = 1;

  ScheduleTrace uncovered;
  uncovered.ops.push_back({ScheduleOp::Kind::Drop, 1, 2, 3, 1});
  EXPECT_FALSE(Fuzzer::within_envelope(uncovered, envelope));

  ScheduleTrace slow;
  slow.ops.push_back({ScheduleOp::Kind::Delay, 1, 0, 2, 3});  // delay 3 > max 2
  EXPECT_FALSE(Fuzzer::within_envelope(slow, envelope));

  ScheduleTrace greedy;  // two drops charged to party 0, budget 1
  greedy.ops.push_back({ScheduleOp::Kind::Drop, 1, 0, 2, 1});
  greedy.ops.push_back({ScheduleOp::Kind::Drop, 2, 0, 3, 1});
  EXPECT_FALSE(Fuzzer::within_envelope(greedy, envelope));

  ScheduleTrace fine;
  fine.ops.push_back({ScheduleOp::Kind::Drop, 1, 0, 2, 1});
  fine.ops.push_back({ScheduleOp::Kind::Delay, 2, 0, 3, 2});
  EXPECT_TRUE(Fuzzer::within_envelope(fine, envelope));
}

// ----------------------------------------------------------- determinism

TEST(FuzzDeterminism, SameSeedSameReportAcrossThreadCounts) {
  for (const unsigned threads : {1U, 4U}) {
    SCOPED_TRACE(threads);
    auto opts = deep_options();
    opts.max_execs = 512;

    auto one = opts;
    one.threads = 1;
    auto many = opts;
    many.threads = threads;

    Fuzzer a(deep_scenario(), one);
    Fuzzer b(deep_scenario(), many);
    expect_reports_equal(a.run(), b.run());
  }
}

TEST(FuzzDeterminism, HoldsOnViolationFreeScenarios) {
  // k=2/1/1 under silent is exhaustively clean beyond the envelope, so
  // the budget runs dry: the no-violation path must be deterministic too.
  FuzzerOptions opts;
  opts.corrupt_adjacent_only = false;
  opts.max_execs = 256;
  auto one = opts;
  one.threads = 1;
  auto many = opts;
  many.threads = 4;

  Fuzzer a(base_scenario(2, 1, 1, Battery::Silent), one);
  Fuzzer b(base_scenario(2, 1, 1, Battery::Silent), many);
  const FuzzReport ra = a.run();
  const FuzzReport rb = b.run();
  EXPECT_TRUE(ra.all_satisfied());
  EXPECT_FALSE(ra.counterexample.has_value());
  expect_reports_equal(ra, rb);
}

TEST(FuzzDeterminism, RefusesNonSynchronousScenarios) {
  auto scenario = base_scenario(2, 1, 0, Battery::Silent);
  scenario.sched.kind = sched::PolicyDesc::Kind::RandomDelay;
  EXPECT_THROW(Fuzzer(scenario, FuzzerOptions{}), std::logic_error);
}

TEST(FuzzDeterminism, BudgetCountsTheRootRun) {
  FuzzerOptions opts;
  opts.max_execs = 1;
  Fuzzer root_only(base_scenario(2, 1, 0, Battery::Silent), opts);
  EXPECT_EQ(root_only.run().execs, 1U);

  // The root always runs, so a budget of 0 could not hold: refused.
  opts.max_execs = 0;
  EXPECT_THROW(Fuzzer(base_scenario(2, 1, 0, Battery::Silent), opts), std::logic_error);
}

// ---------------------------------------------------- corpus persistence

TEST(FuzzCorpus, SaveLoadRoundTripsAndDedups) {
  const std::string dir = fresh_dir("roundtrip");

  std::vector<ScheduleTrace> traces;
  ScheduleTrace a;
  a.ops.push_back({ScheduleOp::Kind::Drop, 1, 1, 2, 1});
  ScheduleTrace b;
  b.ops.push_back({ScheduleOp::Kind::Delay, 2, 0, 3, 1});
  b.ops.push_back({ScheduleOp::Kind::Rank, 3, 2, 1, 2});
  traces.push_back(a);
  traces.push_back(b);
  traces.push_back(a);  // duplicate: must collapse to one file

  EXPECT_EQ(Fuzzer::save_corpus(dir, traces, nullptr), 2U);
  EXPECT_EQ(Fuzzer::save_corpus(dir, traces, nullptr), 0U) << "re-save must dedup by digest";

  const auto loaded = Fuzzer::load_corpus(dir);
  ASSERT_EQ(loaded.size(), 2U);
  std::vector<std::string> got;
  for (const auto& t : loaded) got.push_back(t.serialize());
  std::vector<std::string> want = {a.serialize(), b.serialize()};
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);

  std::filesystem::remove_all(dir);
}

TEST(FuzzCorpus, MissingDirectoryIsAnEmptyCorpus) {
  EXPECT_TRUE(Fuzzer::load_corpus(fresh_dir("missing")).empty());
}

TEST(FuzzCorpus, SaveIntoAFileWritesNothingAndNeverThrows) {
  const std::string path = fresh_dir("file_in_the_way");
  std::ofstream(path) << "not a directory\n";
  ScheduleTrace trace;
  trace.ops.push_back({ScheduleOp::Kind::Drop, 1, 1, 2, 1});
  std::string error;
  EXPECT_EQ(Fuzzer::save_corpus(path, {trace}, &error), 0U);
  EXPECT_EQ(error, "cannot create " + path);
  EXPECT_EQ(Fuzzer::save_corpus(path + "/nested", {trace}, &error), 0U);
  EXPECT_EQ(error, "cannot create " + path + "/nested");
  std::filesystem::remove(path);
}

TEST(FuzzCorpus, PersistsAcrossRunsAndSeedsTheNext) {
  const std::string dir = fresh_dir("persist");

  auto opts = deep_options();
  opts.max_execs = 256;
  opts.corpus_dir = dir;
  Fuzzer first(deep_scenario(), opts);
  const FuzzReport r1 = first.run();
  EXPECT_EQ(r1.corpus_loaded, 0U);
  EXPECT_GT(r1.corpus_saved, 0U);

  // A second fuzzer over the same directory adopts the saved corpus.
  Fuzzer second(deep_scenario(), opts);
  const FuzzReport r2 = second.run();
  EXPECT_GT(r2.corpus_loaded, 0U);
  std::filesystem::remove_all(dir);

  // A hand-written seed naming a party the scenario lacks is skipped, not
  // run: a policy over it would refuse an id beyond the PartySet capacity.
  const std::string far = fresh_dir("far");
  std::filesystem::create_directories(far);
  std::ofstream(far + "/far.trace") << "drop@1:0>4000000000\n";
  opts.corpus_dir = far;
  Fuzzer third(deep_scenario(), opts);
  EXPECT_EQ(third.run().corpus_loaded, 0U);
  std::filesystem::remove_all(far);
}

// ------------------------------------- the engineered 3-op deep violation

TEST(FuzzDeepViolation, BeatsIterativeDeepeningAtTheSameBudget) {
  // The explorer, given the whole 4096-run budget, never reaches the
  // violating region: depths 1-2 are exhaustively clean and the depth-3
  // wave alone is ~17k schedules.
  sched::ExplorerOptions explorer_opts;
  explorer_opts.max_depth = 3;
  explorer_opts.corrupt_adjacent_only = false;
  explorer_opts.max_schedules = 4096;
  const auto explored = sched::explore(deep_scenario(), explorer_opts);
  EXPECT_EQ(explored.violations, 0U);
  EXPECT_TRUE(explored.truncated);
  EXPECT_FALSE(explored.counterexample.has_value());

  // The fuzzer, racing the same drop+delay(1) space with the same
  // budget, finds a deep violation in a fraction of the executions.
  Fuzzer fuzzer(deep_scenario(), deep_options());
  const FuzzReport report = fuzzer.run();
  EXPECT_GE(report.violations, 1U);
  EXPECT_FALSE(report.all_satisfied());
  ASSERT_TRUE(report.counterexample.has_value());
  ASSERT_FALSE(report.counterexample_views.empty());
  EXPECT_LT(report.execs, explored.explored)
      << "the fuzzer must beat the explorer's execution count";

  // Deep: the shrunken counterexample still needs >= 3 ops.
  EXPECT_GE(report.counterexample->ops.size(), 3U);
}

TEST(FuzzDeepViolation, ShrunkenCounterexampleIsOneMinimal) {
  Fuzzer fuzzer(deep_scenario(), deep_options());
  const FuzzReport report = fuzzer.run();
  ASSERT_TRUE(report.counterexample.has_value());

  const auto scenario = deep_scenario();
  for (std::size_t i = 0; i < report.counterexample->ops.size(); ++i) {
    ScenarioSpec weakened = scenario;
    weakened.sched.kind = sched::PolicyDesc::Kind::Scripted;
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

TEST(FuzzDeepViolation, CounterexampleReplaysBitForBit) {
  Fuzzer fuzzer(deep_scenario(), deep_options());
  const FuzzReport report = fuzzer.run();
  ASSERT_TRUE(report.counterexample.has_value());

  // Through the text codec — the path a trace takes through the JSON
  // report and `bsm_cli fuzz --replay`.
  const std::string text = report.counterexample->serialize();
  const auto parsed = ScheduleTrace::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(*parsed == *report.counterexample);

  ScenarioSpec replay = deep_scenario();
  replay.sched.kind = sched::PolicyDesc::Kind::Scripted;
  replay.sched.trace = *parsed;
  const auto first = core::run_scenario(replay);
  const auto second = core::run_scenario(replay);
  ASSERT_TRUE(first.outcome.has_value());
  ASSERT_TRUE(second.outcome.has_value());

  EXPECT_FALSE(first.outcome->report.all()) << "the replayed schedule must still violate";
  EXPECT_EQ(first.outcome->view_hashes, report.counterexample_views)
      << "replay diverged from the fuzzer's violating run";
  EXPECT_TRUE(*first.outcome == *second.outcome) << "replay is not deterministic";
}

TEST(FuzzDeepViolation, ExplorerSeedsAccelerateTheHunt) {
  // Seeding the fuzzer with the explorer's frontier is the intended
  // pipeline: interesting-but-clean traces from a shallow systematic
  // pass make useful greybox parents. Seeds enter through the corpus
  // directory, the path `bsm_cli fuzz --corpus` uses.
  const std::string dir = fresh_dir("explorer_seeds");
  ScheduleTrace seed;
  seed.ops.push_back({ScheduleOp::Kind::Drop, 1, 1, 0, 1});
  seed.ops.push_back({ScheduleOp::Kind::Drop, 1, 1, 2, 1});
  ASSERT_EQ(Fuzzer::save_corpus(dir, {seed}, nullptr), 1U);

  auto opts = deep_options();
  opts.corpus_dir = dir;
  Fuzzer fuzzer(deep_scenario(), opts);
  const FuzzReport report = fuzzer.run();
  EXPECT_EQ(report.corpus_loaded, 1U);
  EXPECT_GE(report.violations, 1U);
  ASSERT_TRUE(report.counterexample.has_value());
  EXPECT_GE(report.counterexample->ops.size(), 3U);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bsm

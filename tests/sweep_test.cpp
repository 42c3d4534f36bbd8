// The sweep layer's two contracts:
//
//  1. Determinism — run_sweep() over a thread pool produces results
//     byte-identical to the serial fallback, cell for cell (same view
//     hashes, same PropertyReports, same traffic counters).
//  2. Traffic accounting — per-round diffs of the batched mailbox
//     engine's TrafficStats totals and per-channel tallies of its
//     deliveries decompose those totals exactly, and inbox slices arrive
//     ordered by sender.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "core/sweep.hpp"
#include "net/engine.hpp"

namespace bsm::core {
namespace {

[[nodiscard]] std::vector<ScenarioSpec> determinism_grid() {
  SweepGrid grid;
  grid.topologies = {net::TopologyKind::FullyConnected, net::TopologyKind::OneSided};
  grid.auths = {true};
  grid.ks = {2, 3};
  grid.seeds = {1, 2};
  grid.batteries = {Battery::Silent, Battery::Liars};
  return grid.cells();
}

TEST(Sweep, SerialAndParallelResultsAreByteIdentical) {
  const auto cells = determinism_grid();
  ASSERT_GE(cells.size(), 64U) << "the acceptance grid must have at least 64 cells";

  const auto serial = run_sweep(cells, {.threads = 1});
  const auto parallel = run_sweep(cells, {.threads = 4});

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].solvable, parallel[i].solvable);
    ASSERT_EQ(serial[i].outcome.has_value(), parallel[i].outcome.has_value());
    if (!serial[i].outcome.has_value()) continue;
    const auto& s = *serial[i].outcome;
    const auto& p = *parallel[i].outcome;
    EXPECT_EQ(s.view_hashes, p.view_hashes) << cells[i].config.describe();
    EXPECT_EQ(s.report, p.report) << cells[i].config.describe();
    EXPECT_TRUE(s == p) << "full RunOutcome mismatch at " << cells[i].config.describe();
  }
}

TEST(Sweep, RepeatedParallelRunsAreStable) {
  // Same grid, two parallel executions: the schedule must not leak into
  // results.
  const auto cells = determinism_grid();
  const auto a = run_sweep(cells, {.threads = 4});
  const auto b = run_sweep(cells, {.threads = 4});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].outcome.has_value(), b[i].outcome.has_value());
    if (a[i].outcome.has_value()) EXPECT_TRUE(*a[i].outcome == *b[i].outcome);
  }
}

TEST(Sweep, UnsolvableCellsAreReportedNotRun) {
  SweepGrid grid;
  grid.topologies = {net::TopologyKind::FullyConnected};
  grid.auths = {false};
  grid.ks = {3};
  const auto results = run_sweep(grid.cells());
  bool saw_unsolvable = false;
  for (const auto& cell : results) {
    if (!cell.solvable) {
      saw_unsolvable = true;
      EXPECT_FALSE(cell.outcome.has_value());
      EXPECT_FALSE(cell.ok());
    }
  }
  EXPECT_TRUE(saw_unsolvable) << "unauthenticated k=3 must contain impossible cells";
}

/// A deliberately skewed grid, >= 128 cells: heavy large-k Liars cells
/// first (so static partitioning dumps them all on the first worker),
/// trivial k=2 cells after.
[[nodiscard]] std::vector<ScenarioSpec> skewed_grid() {
  SweepGrid heavy;
  heavy.auths = {true};
  heavy.ks = {5};
  heavy.tls = {1};
  heavy.trs = {1};
  heavy.batteries = {Battery::Liars};
  heavy.seeds.clear();
  for (std::uint64_t s = 1; s <= 16; ++s) heavy.seeds.push_back(s);
  auto cells = heavy.cells();

  SweepGrid light;
  light.auths = {true};
  light.ks = {2};
  light.tls = {1};
  light.trs = {1};
  light.batteries = {Battery::Silent, Battery::Noise, Battery::Liars,
                     Battery::AdaptiveCrash};
  light.seeds.clear();
  for (std::uint64_t s = 1; s <= 28; ++s) light.seeds.push_back(s);
  const auto trivial = light.cells();
  cells.insert(cells.end(), trivial.begin(), trivial.end());
  return cells;
}

TEST(Sweep, WorkStealingOnSkewedGridMatchesSerialByteForByte) {
  const auto cells = skewed_grid();
  ASSERT_GE(cells.size(), 128U) << "the skewed acceptance grid must have at least 128 cells";

  SweepStats serial_stats;
  SweepStats stealing_stats;
  SweepStats static_stats;
  const auto serial = run_sweep(cells, {.threads = 1}, &serial_stats);
  const auto stealing =
      run_sweep(cells, {.threads = 4, .schedule = Schedule::WorkStealing}, &stealing_stats);
  const auto fixed =
      run_sweep(cells, {.threads = 4, .schedule = Schedule::Static}, &static_stats);

  ASSERT_EQ(serial.size(), stealing.size());
  ASSERT_EQ(serial.size(), fixed.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].solvable, stealing[i].solvable);
    ASSERT_EQ(serial[i].outcome.has_value(), stealing[i].outcome.has_value());
    ASSERT_EQ(serial[i].outcome.has_value(), fixed[i].outcome.has_value());
    if (!serial[i].outcome.has_value()) continue;
    EXPECT_TRUE(*serial[i].outcome == *stealing[i].outcome)
        << "stealing diverged at " << cells[i].config.describe();
    EXPECT_TRUE(*serial[i].outcome == *fixed[i].outcome)
        << "static diverged at " << cells[i].config.describe();
  }

  // Schedule-shape accounting: the serial fallback is one chunk on the
  // calling thread; the stealing run deals multiple chunks per worker;
  // the static run deals exactly one partition per worker and never
  // steals. Steal counts are schedule-dependent (timing), so only their
  // invariants are asserted, never an exact value.
  EXPECT_EQ(serial_stats.threads, 1U);
  EXPECT_EQ(serial_stats.chunks, 1U);
  EXPECT_EQ(serial_stats.steals, 0U);
  EXPECT_EQ(stealing_stats.threads, 4U);
  EXPECT_GE(stealing_stats.chunks, 4U);
  EXPECT_LE(stealing_stats.steals, stealing_stats.chunks);
  EXPECT_EQ(static_stats.chunks, 4U);
  EXPECT_EQ(static_stats.steals, 0U);
  for (const auto* stats : {&serial_stats, &stealing_stats, &static_stats}) {
    EXPECT_EQ(stats->cells, cells.size());
    EXPECT_EQ(stats->oracle.lookups(), cells.size()) << "every cell consults the oracle once";
  }
  EXPECT_GT(stealing_stats.oracle.hits, 0U) << "seeds repeat settings, the cache must hit";
}

TEST(Sweep, TinyChunksForceStealsWithoutChangingResults) {
  // chunk_cells = 1 with a single heavy prefix maximizes steal pressure;
  // results must stay byte-identical to serial regardless.
  const auto cells = skewed_grid();
  const auto serial = run_sweep(cells, {.threads = 1});
  SweepStats stats;
  const auto stolen = run_sweep(cells, {.threads = 8, .chunk_cells = 1}, &stats);
  EXPECT_EQ(stats.chunks, cells.size());
  ASSERT_EQ(serial.size(), stolen.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].outcome.has_value(), stolen[i].outcome.has_value());
    if (serial[i].outcome.has_value()) {
      EXPECT_TRUE(*serial[i].outcome == *stolen[i].outcome);
    }
  }
}

TEST(Sweep, RunCellsHonorsStaticSchedule) {
  std::vector<int> cells(257);
  for (int i = 0; i < 257; ++i) cells[i] = i;
  const auto tripled = run_cells(
      cells, [](const int& x) { return 3 * x; },
      {.threads = 4, .schedule = Schedule::Static});
  for (int i = 0; i < 257; ++i) EXPECT_EQ(tripled[i], 3 * i);
}

TEST(Sweep, RunCellsPreservesInputOrder) {
  std::vector<int> cells(100);
  for (int i = 0; i < 100; ++i) cells[i] = i;
  const auto doubled =
      run_cells(cells, [](const int& x) { return 2 * x; }, {.threads = 8});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(doubled[i], 2 * i);
}

TEST(Sweep, CellExceptionsPropagateToCaller) {
  std::vector<int> cells{1, 2, 3, 4};
  EXPECT_THROW((void)run_cells(
                   cells,
                   [](const int& x) {
                     if (x == 3) throw std::runtime_error("boom");
                     return x;
                   },
                   {.threads = 2}),
               std::runtime_error);
}

/// Sends one fixed-size message to `peer` every round.
class Pinger final : public net::Process {
 public:
  explicit Pinger(PartyId peer) : peer_(peer) {}
  void on_round(net::Context& ctx, net::Inbox) override { ctx.send(peer_, Bytes{1, 2, 3}); }

 private:
  PartyId peer_;
};

/// Records the sender sequence of every inbox it receives.
class SenderRecorder final : public net::Process {
 public:
  void on_round(net::Context&, net::Inbox inbox) override {
    for (const auto& env : inbox) senders.push_back(env.from);
  }
  std::vector<PartyId> senders;
};

TEST(TrafficStats, PerRoundAndPerChannelCountersDecomposeTotals) {
  const std::uint32_t k = 2;  // parties 0,1 (L) and 2,3 (R), fully connected
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, k), 1);
  engine.set_process(0, std::make_unique<Pinger>(2));
  engine.set_process(1, std::make_unique<Pinger>(2));
  engine.set_process(2, std::make_unique<SenderRecorder>());
  struct Counter {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    bool operator==(const Counter&) const = default;
  };
  std::map<std::pair<PartyId, PartyId>, Counter> by_channel;  // delivered side
  engine.set_observer([&](const net::Envelope& env) {
    auto& counter = by_channel[{env.from, env.to}];
    ++counter.messages;
    counter.bytes += env.payload.size();
  });
  const Round rounds = 5;

  // Per-round counters, by diffing the totals around each round.
  for (Round r = 0; r < rounds; ++r) {
    const net::TrafficStats before = engine.stats();
    engine.run_guarded(1);
    EXPECT_EQ(engine.stats().messages - before.messages, 2U) << "round " << r;
    EXPECT_EQ(engine.stats().bytes - before.bytes, 6U) << "round " << r;
  }
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.messages, 2U * rounds);
  EXPECT_EQ(stats.bytes, 2U * rounds * 3);

  // Per-channel counters, tallied by the observer, decompose the delivered
  // totals exactly; the last round's two sends are still in flight.
  std::uint64_t channel_messages = 0;
  std::uint64_t channel_bytes = 0;
  for (const auto& [channel, counter] : by_channel) {
    channel_messages += counter.messages;
    channel_bytes += counter.bytes;
  }
  EXPECT_EQ(channel_messages, stats.delivered_messages);
  EXPECT_EQ(channel_bytes, stats.delivered_bytes);
  EXPECT_EQ(stats.delivered_messages + 2, stats.messages);

  // And individual channels carry exactly their own traffic.
  ASSERT_EQ(by_channel.size(), 2U);
  const Counter from_0 = by_channel[{0, 2}];
  const Counter from_1 = by_channel[{1, 2}];
  EXPECT_EQ(from_0.messages, rounds - 1U);
  EXPECT_EQ(from_0.bytes, (rounds - 1U) * 3);
  EXPECT_TRUE(from_1 == from_0);
}

TEST(Mailbox, InboxSlicesArriveOrderedBySender) {
  // Senders installed in descending id order still deliver ascending.
  const std::uint32_t k = 2;
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, k), 1);
  engine.set_process(3, std::make_unique<Pinger>(0));
  engine.set_process(2, std::make_unique<Pinger>(0));
  engine.set_process(1, std::make_unique<Pinger>(0));
  engine.set_process(0, std::make_unique<SenderRecorder>());
  engine.run_guarded(3);  // deliveries happen in rounds 1 and 2

  const auto& recorder = engine.process_as<SenderRecorder>(0);
  const std::vector<PartyId> expected{1, 2, 3, 1, 2, 3};
  EXPECT_EQ(recorder.senders, expected);
}

}  // namespace
}  // namespace bsm::core

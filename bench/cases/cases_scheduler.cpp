// Scheduler + oracle-cache case groups — the measurements behind the
// work-stealing sweep executor (core/sweep.cpp):
//
//   sweep/steal_skewed vs sweep/static_skewed — the same deliberately
//   skewed grid (every heavy large-k cell dealt to the front of the range,
//   i.e. onto one static partition) under the work-stealing scheduler and
//   under the fixed-partition baseline. The stealing median must not trail
//   the static one: idle workers drain the heavy shard's backlog.
//
//   oracle/cache_hot vs oracle/cache_cold — a seed-repeating grid (every
//   canonical setting recurs across seeds) with the OracleCache enabled vs
//   bypassed, quantifying the memoized solvability/protocol resolution and
//   asserting the hot run actually hits (> 50% by construction).
//
//   sweep/jsonl_stream vs sweep/shard_overhead — the streaming layer
//   (core/shard.hpp) on its own in-order executor: jsonl_stream runs one
//   grid as a single 1/1 JSONL stream (execution plus render and
//   checkpoint cost), shard_overhead runs the identical grid as a 4-way shard
//   split executed back-to-back in-process, so its delta over
//   jsonl_stream prices the per-shard setup, header/summary duplication,
//   and the merge. Both assert the byte contract: the shard documents
//   must reassemble into the 1/1 stream exactly.
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cases/cases.hpp"
#include "cases/digest.hpp"
#include "common/hash.hpp"
#include "core/bench.hpp"
#include "core/shard.hpp"
#include "core/sweep.hpp"

namespace bsm::benchcases {
namespace {

using namespace bsm;
using core::BenchContext;
using core::BenchRun;
using net::TopologyKind;

/// Fold a sweep into one BenchRun; ok &= every solvable cell ran and held
/// all four bSM properties.
void fold(BenchRun& run, const std::vector<core::CellResult>& results) {
  run.cells += results.size();
  for (const auto& cell : results) {
    run.digest = hash_combine(run.digest, splitmix64(cell.solvable));
    if (cell.solvable) run.ok &= cell.ok();
    if (!cell.outcome.has_value()) continue;
    const auto& out = *cell.outcome;
    run.rounds += out.rounds;
    run.messages += out.traffic.messages;
    run.bytes += out.traffic.bytes;
    run.digest = digest_outcome(run.digest, out);
  }
}

/// A skewed grid: `heavy` expensive cells (size k_heavy, Liars over the
/// full budget — contested-profile worst case) followed by `light` trivial
/// k=2 cells. Heavy-first ordering is the point: a static partition hands
/// every heavy cell to the first worker(s) while the rest idle, the
/// pathology stealing exists to fix.
[[nodiscard]] std::vector<core::ScenarioSpec> skewed_cells(std::uint32_t k_heavy,
                                                           std::uint64_t heavy,
                                                           std::uint64_t light) {
  core::SweepGrid grid;
  grid.topologies = {TopologyKind::FullyConnected};
  grid.auths = {true};
  grid.ks = {k_heavy};
  grid.tls = {2};
  grid.trs = {2};
  grid.batteries = {core::Battery::Liars};
  grid.seeds.clear();
  for (std::uint64_t s = 1; s <= heavy; ++s) grid.seeds.push_back(s);
  auto cells = grid.cells();

  grid.ks = {2};
  grid.tls = {1};
  grid.trs = {1};
  grid.batteries = {core::Battery::Silent};
  grid.seeds.clear();
  for (std::uint64_t s = 1; s <= light; ++s) grid.seeds.push_back(s);
  const auto trivial = grid.cells();
  cells.insert(cells.end(), trivial.begin(), trivial.end());
  return cells;
}

[[nodiscard]] BenchRun run_skewed(const BenchContext& ctx, core::Schedule schedule,
                                  std::uint32_t k_heavy, std::uint64_t heavy,
                                  std::uint64_t light) {
  const auto cells = skewed_cells(k_heavy, heavy, light);
  // Fresh cache per execution: with the shared global cache, whichever of
  // the steal/static pair ran first would pay every cold derivation and
  // bias the exact comparison this pair exists to make.
  core::OracleCache cache;
  core::SweepOptions opts{.threads = ctx.threads, .schedule = schedule};
  opts.oracle = &cache;
  core::SweepStats stats;
  const auto results = core::run_sweep(cells, opts, &stats);
  BenchRun run;
  fold(run, results);
  run.ok &= stats.cells == cells.size();
  return run;
}

/// A seed-repeating grid: the full (tl, tr) budget range at one market
/// size, every setting recurring across `seeds` workload seeds — the
/// access pattern the OracleCache collapses to one derivation per setting.
[[nodiscard]] BenchRun run_cache(const BenchContext& ctx, bool cached, std::uint64_t seeds,
                                 double min_hit_rate) {
  core::SweepGrid grid;
  grid.topologies = {TopologyKind::FullyConnected, TopologyKind::OneSided};
  grid.auths = {true};
  grid.ks = {3};
  grid.batteries = {core::Battery::Silent, core::Battery::Liars};
  grid.seeds.clear();
  for (std::uint64_t s = 1; s <= seeds; ++s) grid.seeds.push_back(s);
  const auto cells = grid.cells();

  // A fresh cache per execution keeps the counters (and therefore ok)
  // reproducible across repeats — the harness's determinism cross-check
  // would flag a warm global cache whose hit split drifts between repeats.
  core::OracleCache cache;
  core::SweepOptions opts{.threads = ctx.threads};
  opts.oracle = cached ? &cache : nullptr;
  core::SweepStats stats;
  const auto results = core::run_sweep(cells, opts, &stats);

  BenchRun run;
  fold(run, results);
  if (cached) {
    run.ok &= stats.oracle.lookups() == cells.size();
    run.ok &= stats.oracle.hit_rate() > min_hit_rate;
  } else {
    run.ok &= stats.oracle.lookups() == 0;
  }
  return run;
}

/// The streaming cases' grid: two topologies, both batteries, the full
/// k=2 budget range, seed-repeated — a moderate, evenly weighted list.
[[nodiscard]] std::vector<core::ScenarioSpec> stream_cells() {
  core::SweepGrid grid;
  grid.topologies = {TopologyKind::FullyConnected, TopologyKind::OneSided};
  grid.auths = {true};
  grid.ks = {2};
  grid.batteries = {core::Battery::Silent, core::Battery::Liars};
  grid.seeds = {1, 2, 3, 4};
  return grid.cells();
}

/// Run stream_cells() as `shards` sequential JSONL shard streams, then
/// merge. The in-process back-to-back execution stands in for the fleet;
/// the digest folds each shard's emitted-line digest plus the merged
/// bytes after the header line (which carries the build's git SHA), and
/// `bytes` counts that body too, so any byte drift between repeats fails
/// the determinism cross-check and neither moves from commit to commit
/// (cross-shard-count byte identity is tests/shard_test.cpp's job — here
/// a reassembly mismatch already fails via merge_jsonl).
[[nodiscard]] BenchRun run_stream(const BenchContext& ctx, std::uint32_t shards) {
  const auto cells = stream_cells();
  BenchRun run;
  std::vector<std::string> docs;
  for (std::uint32_t i = 1; i <= shards; ++i) {
    core::OracleCache cache;  // per-shard, like separate processes
    core::StreamOptions opts;
    opts.shard = {i, shards};
    opts.checkpoint_every = 16;
    opts.sweep.threads = ctx.threads;
    opts.sweep.oracle = &cache;
    std::ostringstream out;
    const core::StreamStats st = core::stream_sweep(cells, opts, out);
    run.cells += st.cells;
    run.rounds += st.sweep.chunks;  // scheduler work units; traffic stays per-line
    run.ok &= st.all_ok && st.emitted == st.cells;
    run.digest = hash_combine(run.digest, st.digest);
    docs.push_back(out.str());
  }
  run.ok &= run.cells == cells.size();

  std::string error;
  const auto merged = core::merge_jsonl(docs, &error);
  run.ok &= merged.has_value();
  if (merged.has_value()) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(merged->data());
    const std::size_t header_end = merged->find('\n');
    const std::size_t body = header_end == std::string::npos ? 0 : header_end + 1;
    run.bytes += merged->size() - body;
    run.digest = hash_combine(run.digest, fnv1a64(std::span(bytes + body, merged->size() - body)));
  }
  return run;
}

}  // namespace

void register_sweep_scheduler() {
  core::register_bench({"sweep/steal_skewed",
                        [](const BenchContext& ctx) {
                          return run_skewed(ctx, core::Schedule::WorkStealing, 6, 24, 104);
                        }});
  core::register_bench({"sweep/static_skewed",
                        [](const BenchContext& ctx) {
                          return run_skewed(ctx, core::Schedule::Static, 6, 24, 104);
                        }});
  core::register_bench({"sweep/smoke",
                        [](const BenchContext& ctx) {
                          return run_skewed(ctx, core::Schedule::WorkStealing, 4, 4, 28);
                        }});
  core::register_bench(
      {"sweep/jsonl_stream", [](const BenchContext& ctx) { return run_stream(ctx, 1); }});
  core::register_bench(
      {"sweep/shard_overhead", [](const BenchContext& ctx) { return run_stream(ctx, 4); }});
}

void register_oracle_cache() {
  core::register_bench({"oracle/cache_hot",
                        [](const BenchContext& ctx) { return run_cache(ctx, true, 8, 0.5); }});
  core::register_bench({"oracle/cache_cold",
                        [](const BenchContext& ctx) { return run_cache(ctx, false, 8, 0.0); }});
  core::register_bench({"oracle/smoke",
                        [](const BenchContext& ctx) { return run_cache(ctx, true, 2, 0.0); }});
}

}  // namespace bsm::benchcases

// grid_sweep: the paper's E1 solvability grid streamed as one 1/1 JSONL
// shard through core::stream_sweep, as `bsm_cli sweep --out` runs it.
//
// Thousands of short, uneven cells: unsolvable cells stop at the oracle
// and k = 5 liars cells cost many times what k = 3 silent cells do, so the
// scheduler, oracle, scenario materialization, engine assembly, property
// checks and JSONL rendering all carry real load. A unit of latency is one
// 64-cell checkpoint block, timed at the sink: the work a killed resumable
// sweep can lose.
#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <ostream>
#include <span>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "chain.hpp"
#include "common/hash.hpp"
#include "core/oracle.hpp"
#include "core/shard.hpp"
#include "core/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bsm;

constexpr std::size_t kCheckpointEvery = 64;  // the CLI default
constexpr std::uint64_t kGridSeeds = 4;       // sized so one pass lasts a few seconds
constexpr int kSetupsPerPass = 3;             // set-up samples between passes

[[nodiscard]] std::vector<core::ScenarioSpec> grid_cells(std::uint64_t seed) {
  core::SweepGrid grid;
  grid.topologies = {net::TopologyKind::FullyConnected, net::TopologyKind::OneSided,
                     net::TopologyKind::Bipartite};
  grid.auths = {false, true};
  grid.ks = {3, 4, 5};
  grid.batteries = {core::Battery::Silent, core::Battery::Noise, core::Battery::Liars,
                    core::Battery::AdaptiveCrash};
  grid.seeds.clear();
  for (std::uint64_t i = 1; i <= kGridSeeds; ++i) grid.seeds.push_back(seed * kGridSeeds + i);
  return grid.cells();
}

[[nodiscard]] std::uint64_t text_digest(std::string_view text) {
  return fnv1a64(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(text.data()),
                                               text.size()));
}

[[nodiscard]] std::optional<std::uint64_t> field_u64(std::string_view line, std::string_view name) {
  std::string pattern(1, '"');
  pattern.append(name).append("\": ");
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return std::nullopt;
  const char* begin = line.data() + at + pattern.size();
  const char* end = line.data() + line.size();
  std::uint64_t value = 0;
  const auto [p, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || p == begin) return std::nullopt;
  return value;
}

/// A cell line is right when its verdict is core::solvable()'s and, for a
/// solvable cell, the run held all four properties in exactly the resolved
/// protocol's closed-form round count.
[[nodiscard]] bool cell_ok(std::string_view line, const core::ScenarioSpec& cell) {
  const bool solvable = core::solvable(cell.config);
  if ((line.find("\"solvable\": true") != std::string_view::npos) != solvable) return false;
  if (!solvable) return line.find("\"protocol\": ") == std::string_view::npos;
  const auto spec = core::resolve_protocol(cell.config);
  return spec.has_value() && line.find("\"all_properties\": true") != std::string_view::npos &&
         field_u64(line, "rounds") == spec->total_rounds + cell.extra_rounds;
}

/// Checks one JSONL document line by line: cell lines in strict 0..N-1
/// order, each right, closed by a matching summary line.
struct DocCheck {
  const std::vector<core::ScenarioSpec>& cells;
  std::size_t next = 0;
  std::uint64_t wrong = 0;
  bool summary = false;

  void line(std::string_view line) {
    if (line.starts_with("{\"type\": \"summary\"")) {
      summary = field_u64(line, "cells") == cells.size();
    } else if (!line.starts_with("{\"type\": \"cell\"")) {
      return;
    } else if (field_u64(line, "cell") != next || next >= cells.size()) {
      ++wrong;
    } else {
      if (!cell_ok(line, cells[next])) ++wrong;
      ++next;
    }
  }

  /// Failing cells: wrong cells, plus every cell missing from the sequence
  /// (after a gap, every later line is out of sequence), at most all.
  [[nodiscard]] std::uint64_t failed() const {
    return std::min<std::uint64_t>(cells.size(),
                                   wrong + (cells.size() - std::min(next, cells.size())));
  }
};

/// The JSONL sink, standing in for the file of `sweep --out`: it keeps only
/// the block in flight, and on each flush folds the block's lines into a
/// digest of the whole document (and hands them to a DocCheck, if given).
/// stream_sweep flushes once per checkpoint block and once more after the
/// summary line. Each flush is stamped on entry; the sink's own work after
/// the stamp is kept out of the block times and reported as sink_s().
class BlockSink final : public std::streambuf {
 public:
  explicit BlockSink(DocCheck* check = nullptr) : check_(check) {}

  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] bool drained() const { return pending_.empty(); }
  [[nodiscard]] double sink_s() const { return sink_s_; }

  /// Milliseconds per block: from the header write, or the end of the
  /// previous flush, to the block's own flush (the summary's is dropped).
  [[nodiscard]] std::vector<double> block_ms() const {
    if (flushes_ms_.empty()) return {};
    return {flushes_ms_.begin(), flushes_ms_.end() - 1};
  }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    start();
    pending_.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type ch) override {
    start();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      pending_.push_back(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    const Clock::time_point now = Clock::now();
    flushes_ms_.push_back(std::chrono::duration<double, std::milli>(now - resumed_).count());
    std::size_t pos = 0;
    for (std::size_t nl; (nl = pending_.find('\n', pos)) != std::string::npos; pos = nl + 1) {
      const std::string_view line(pending_.data() + pos, nl - pos);
      digest_ = hash_combine(digest_, text_digest(line));
      bytes_ += line.size() + 1;
      if (check_ != nullptr) check_->line(line);
    }
    pending_.erase(0, pos);
    resumed_ = Clock::now();
    sink_s_ += std::chrono::duration<double>(resumed_ - now).count();
    return 0;
  }

 private:
  void start() {
    if (!started_) resumed_ = Clock::now();
    started_ = true;
  }

  DocCheck* check_;
  std::string pending_;
  std::uint64_t digest_ = 0;
  std::uint64_t bytes_ = 0;
  double sink_s_ = 0;
  bool started_ = false;
  Clock::time_point resumed_;
  std::vector<double> flushes_ms_;
};

struct StreamPass {
  std::vector<double> block_ms;
  double wall_s = 0;  ///< excluding the sink's own work
  std::uint64_t doc_digest = 0;
  std::uint64_t doc_bytes = 0;
  core::StreamStats stats;
};

/// One untraced pass: stream_sweep over a fresh (cold) OracleCache, as
/// every sweep process starts with, checked as its blocks arrive.
[[nodiscard]] StreamPass stream_pass(const std::vector<core::ScenarioSpec>& cells,
                                     unsigned threads, Report& report) {
  StreamPass pass;
  DocCheck check{cells};
  BlockSink sink(&check);
  std::ostream out(&sink);
  core::OracleCache cache;
  core::StreamOptions opts;
  opts.checkpoint_every = kCheckpointEvery;
  opts.sweep.threads = threads;
  opts.sweep.oracle = &cache;
  const Clock::time_point t0 = Clock::now();
  pass.stats = core::stream_sweep(cells, opts, out);
  pass.wall_s = seconds_since(t0) - sink.sink_s();
  pass.block_ms = sink.block_ms();
  pass.doc_digest = sink.digest();
  pass.doc_bytes = sink.bytes();

  report.attempted += cells.size();
  report.failed += check.failed();
  if (!check.summary || !sink.drained()) {
    report.fail("grid_sweep: JSONL document has no matching summary line");
  }
  report.check_digest(pass.stats.digest);
  return pass;
}

template <typename T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

struct TracedPass {
  std::uint64_t doc_digest = 0;
  std::uint64_t doc_bytes = 0;
  std::uint64_t digest = 0;  ///< the cell-line digest stream_sweep reports
  LayerReport layers;
};

/// stream_sweep decomposed into its public calls: per checkpoint block,
/// run_sweep's parallel_for_workers over run_scenario's chain
/// (OracleCache::lookup -> traced_run), then run_blocks' in-order
/// jsonl_* rendering, writes and flush. Writes the bytes stream_sweep
/// writes.
[[nodiscard]] TracedPass traced_pass(const std::vector<core::ScenarioSpec>& cells,
                                     unsigned threads) {
  TracedPass pass;
  LayerReport& layers = pass.layers;
  CallClock& main = layers.calls;
  BlockSink sink;
  std::ostream out(&sink);
  core::OracleCache cache;
  obs::Recorder rec;  // histograms only, for the engine phases
  core::OracleCacheStats oracle;
  std::uint64_t arena_hits = 0;
  std::uint64_t arena_builds = 0;
  std::uint64_t& digest = pass.digest;
  std::size_t ran = 0;
  bool all_ok = true;
  double parallel_s = 0;
  AllocTally pool_allocs;
  const unsigned width = core::detail::resolve_threads(kCheckpointEvery, threads);

  obs::install(&rec);
  const Clock::time_point t0 = Clock::now();
  const std::string header = main.time(Call::Render, [&] {
    return core::jsonl_header_line(core::grid_digest(cells), cells.size(), kCheckpointEvery,
                                   core::ShardSpec{});
  });
  main.time(Call::Write, [&] { out << header << '\n'; });
  for (std::size_t g = 0; g < cells.size();) {
    const std::size_t end = std::min(cells.size(), (g / kCheckpointEvery + 1) * kCheckpointEvery);
    const unsigned workers = core::detail::resolve_threads(end - g, threads);
    std::vector<core::ScenarioSpec> block;
    std::vector<core::CellResult> results;
    std::vector<core::SweepArena> arenas;
    std::vector<core::OracleCacheStats> counters;
    main.time(Call::SweepSerial, [&] {
      block.assign(cells.begin() + static_cast<std::ptrdiff_t>(g),
                   cells.begin() + static_cast<std::ptrdiff_t>(end));
      results.resize(block.size());
      arenas.resize(workers);
      counters.resize(workers);
    });
    std::vector<CallClock> clocks(workers);

    const AllocTally main0 = thread_allocs();
    const AllocTally exited0 = exited_thread_allocs();
    const Clock::time_point p0 = Clock::now();
    (void)core::detail::parallel_for_workers(
        block.size(), {threads, core::Schedule::WorkStealing, 0, g},
        [&](std::size_t i, unsigned w) {
          CallClock& clock = clocks[w];
          const Clock::time_point c0 = Clock::now();
          const core::ScenarioSpec& cell = block[i];
          core::CellResult result;
          result.scenario = cell;
          auto verdict = clock.time(Call::OracleLookup, [&] {
            return cache.lookup(core::oracle_key(cell), cell.config, &counters[w]);
          });
          result.solvable = verdict.solvable;
          if (result.solvable || cell.forced_spec.has_value()) {
            result.outcome = traced_run(cell, &arenas[w], verdict.protocol, clock);
          }
          results[i] = std::move(result);
          clock.busy_s += seconds_since(c0);
        });
    parallel_s += seconds_since(p0);
    pool_allocs += thread_allocs() - main0;
    pool_allocs += exited_thread_allocs() - exited0;  // the workers, joined above

    for (const CallClock& clock : clocks) main.merge(clock);
    for (const core::OracleCacheStats& c : counters) oracle += c;
    for (const core::SweepArena& a : arenas) {
      arena_hits += a.profile_hits();
      arena_builds += a.profile_builds();
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::size_t idx = g + i;
      if (idx > 0 && idx % kCheckpointEvery == 0) {
        const std::string cp = main.time(Call::Render, [&] { return core::jsonl_checkpoint_line(idx); });
        main.time(Call::Write, [&] { out << cp << '\n'; });
      }
      const std::string line = main.time(Call::Render, [&] {
        std::string l = core::jsonl_cell_line(idx, results[i]);
        digest = hash_combine(digest, text_digest(l));
        return l;
      });
      main.time(Call::Write, [&] { out << line << '\n'; });
      if (results[i].outcome.has_value()) {
        ++ran;
        all_ok &= results[i].outcome->report.all();
      }
    }
    main.time(Call::Write, [&] { out.flush(); });
    main.time(Call::SweepSerial, [&] {
      release(block);
      release(results);
      release(arenas);
      release(counters);
    });
    g = end;
  }
  const std::string summary =
      main.time(Call::Render, [&] { return core::jsonl_summary_line(cells.size(), ran, all_ok); });
  main.time(Call::Write, [&] {
    out << summary << '\n';
    out.flush();
  });
  const double wall = seconds_since(t0);
  obs::install(nullptr);

  layers.wall_s = wall;
  layers.sweep_busy_s = main.busy_s;
  layers.sweep_idle_frac = parallel_s > 0 ? 1 - main.busy_s / (width * parallel_s) : 0;
  layers.sweep_pool_allocs = pool_allocs - main.cell_allocs();
  layers.oracle_lookups = static_cast<double>(oracle.lookups());
  layers.oracle_hit_ratio = oracle.hit_rate();
  layers.arena_hit_ratio = arena_hits + arena_builds > 0
                               ? static_cast<double>(arena_hits) /
                                     static_cast<double>(arena_hits + arena_builds)
                               : 0;
  layers.shard_bytes = static_cast<double>(sink.bytes());
  read_engine_phases(rec, layers);
  // Thread-time budget: serial sections on one thread, parallel sections on
  // `width`. The sweep layer owns its idle and scheduling time (the
  // parallel span minus the workers' time inside cells) and its serial
  // block set-up; the other layers own their named calls. Glue inside a
  // cell between named calls, and on the main thread between them, stays
  // unattributed.
  const double budget = (wall - parallel_s) + width * parallel_s;
  const double attributed = (width * parallel_s - main.busy_s) + main.cell_seconds() +
                            main[Call::Render].seconds + main[Call::Write].seconds +
                            main[Call::SweepSerial].seconds;
  layers.unattributed_frac = budget > 0 ? 1 - attributed / budget : 0;
  pass.doc_digest = sink.digest();
  pass.doc_bytes = sink.bytes();
  return pass;
}

}  // namespace

Report run_grid_sweep(const RunOptions& opts) {
  Report report;
  EndToEnd e2e;
  std::vector<core::ScenarioSpec> cells;
  std::optional<std::uint64_t> grid;
  // Set-up: enumerate the grid and digest it, as a sweep process starts.
  // A set-up lasts a few ms, so the run samples it between passes, on
  // every CPU, and reports the trimmed mean over the whole run.
  const std::vector<int> cpus = allowed_cpus();
  std::uint64_t digest = 0;
  auto set_up = [&] {
    for (int i = 0; i < kSetupsPerPass; ++i) {
      e2e.setup_s.push_back(seconds_across(
          cpus, [&] { release(cells); },
          [&] {
            cells = grid_cells(opts.seed);
            digest = core::grid_digest(cells);
          }));
      if (grid.has_value() && *grid != digest) report.fail("grid enumeration is not deterministic");
      grid = digest;
    }
  };
  set_up();
  const unsigned threads = workload_threads();
  std::fprintf(stderr, "perfbench: grid_sweep %zu cells, %u threads\n", cells.size(), threads);

  const Clock::time_point warm = Clock::now();
  do {
    (void)stream_pass(cells, threads, report);  // checked, untimed
  } while (seconds_since(warm) < kWarmUpSeconds);

  const Clock::time_point start = Clock::now();
  if (!opts.trace) {
    e2e.repeated_units = true;  // every pass flushes the same blocks
    do {
      const StreamPass pass = stream_pass(cells, threads, report);
      e2e.unit_ms.push_back(pass.block_ms);
      e2e.rates.push_back(static_cast<double>(cells.size()) / pass.wall_s);
      set_up();
    } while (seconds_since(start) < opts.seconds);
    add_end_to_end(report, e2e);
    return report;
  }

  std::vector<LayerReport> traced;
  std::vector<double> reference;
  do {
    const StreamPass ref = stream_pass(cells, threads, report);
    TracedPass pass = traced_pass(cells, threads);
    if (pass.doc_digest != ref.doc_digest || pass.doc_bytes != ref.doc_bytes ||
        pass.digest != ref.stats.digest) {
      report.fail("grid_sweep: the traced chain wrote different JSONL bytes than stream_sweep");
    }
    pass.layers.sweep_chunks = static_cast<double>(ref.stats.sweep.chunks);
    pass.layers.sweep_steals = static_cast<double>(ref.stats.sweep.steals);
    reference.push_back(ref.wall_s);
    traced.push_back(pass.layers);
  } while (seconds_since(start) < opts.seconds);
  add_per_layer(report, median_pass(std::move(traced), reference));
  return report;
}

}  // namespace perfbench

// Measurement helpers shared by the workloads: clocks and percentiles, the
// per-thread call clock of the traced runs, Recorder histogram sums, and
// the report every run prints.
#pragma once

#include <sched.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "alloc_count.hpp"
#include "obs/recorder.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linearly interpolated percentile, p in [0, 100]; 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Mean of the samples left after dropping the lowest and the highest
/// `trim` share of them; 0 for no samples.
[[nodiscard]] double trimmed_mean(std::vector<double> samples, double trim);

/// How long every workload runs its own work, untimed, before its clock
/// starts: on a shared host a run's first second can be several times
/// slower than the rest.
inline constexpr double kWarmUpSeconds = 1.5;

/// This process's peak resident set so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// CPU time the calling thread has used, in seconds.
[[nodiscard]] double thread_cpu_seconds();

/// Worker threads of the multi-threaded workloads: min(CPUs this process
/// may run on, 4).
[[nodiscard]] unsigned workload_threads();

/// The CPUs the calling thread may run on, in ascending order.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Pins the calling thread to one CPU for its lifetime, then restores the
/// thread's previous affinity. Threads started meanwhile inherit the pin.
class PinnedTo {
 public:
  explicit PinnedTo(int cpu);
  ~PinnedTo();
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Runs `prepare` and then `fn` once pinned to each CPU in `cpus` (once
/// unpinned if there are none) and returns the mean duration of `fn` in
/// seconds. On a shared host each CPU has fast and slow spells of its
/// own, a second or so long, so a sample that spans every CPU is steadier
/// than one taken wherever the thread happens to run.
template <typename Prepare, typename Fn>
[[nodiscard]] double seconds_across(const std::vector<int>& cpus, Prepare&& prepare, Fn&& fn) {
  auto timed = [&] {
    prepare();
    const Clock::time_point t0 = Clock::now();
    fn();
    return seconds_since(t0);
  };
  if (cpus.empty()) return timed();
  double total = 0;
  for (const int cpu : cpus) {
    const PinnedTo pin(cpu);
    total += timed();
  }
  return total / static_cast<double>(cpus.size());
}

/// Total duration of one Recorder span kind, in seconds. The histogram
/// keeps only log2-ns bucket counts, so each sample counts at its bucket's
/// log-uniform mean (lower bound / ln 2, capped by the exact max): an
/// estimate within a factor of 1.45 per sample, much closer over many.
[[nodiscard]] double recorder_seconds(const bsm::obs::Recorder& rec, bsm::obs::Span span);

/// The public calls a traced run times, each owned by one layer.
enum class Call : std::uint8_t {
  OracleLookup,  ///< core.oracle: oracle_key + OracleCache::lookup
  Materialize,   ///< core.scenario: to_run_spec
  Assemble,      ///< core.runner: assemble_run (engine, PKI keys, processes)
  Watch,         ///< core.runner: the all-honest-decided check between rounds
  Teardown,      ///< core.runner: destroying the assembled run
  Round,         ///< net.engine + protocol: Engine::run_guarded(1, cap)
  Collect,       ///< core.properties: collect_outcome
  Render,        ///< core.shard: JSONL line rendering and the line digest
  Write,         ///< core.shard: writes and flushes to the sink
  SweepSerial,   ///< core.sweep: per-block input copy, result and arena vectors
};
inline constexpr std::size_t kCalls = 10;

/// The calls made inside one sweep cell or one protocol run.
inline constexpr std::array<Call, 7> kCellCalls{Call::OracleLookup, Call::Materialize,
                                                Call::Assemble,     Call::Watch,
                                                Call::Teardown,     Call::Round,
                                                Call::Collect};

struct CallTotals {
  double seconds = 0;
  AllocTally allocs;
};

/// One thread's totals over a traced pass. Each sweep worker owns one,
/// aligned so that no two workers write the same cache line.
struct alignas(64) CallClock {
  std::array<CallTotals, kCalls> calls{};
  double busy_s = 0;           ///< time inside sweep cell functions
  std::uint64_t rounds = 0;    ///< engine rounds of the outcomes produced
  std::uint64_t messages = 0;  ///< messages sent in those outcomes
  std::uint64_t bytes = 0;     ///< payload bytes sent in those outcomes

  /// Run `fn`, adding its duration and allocations to `call`'s totals.
  template <typename Fn>
  auto time(Call call, Fn&& fn) {
    const AllocTally allocs0 = thread_allocs();
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      fn();
      note(call, t0, allocs0);
    } else {
      auto result = fn();
      note(call, t0, allocs0);
      return result;
    }
  }

  [[nodiscard]] const CallTotals& operator[](Call call) const {
    return calls[static_cast<std::size_t>(call)];
  }
  CallTotals& operator[](Call call) { return calls[static_cast<std::size_t>(call)]; }

  /// Seconds and allocations summed over kCellCalls.
  [[nodiscard]] double cell_seconds() const;
  [[nodiscard]] AllocTally cell_allocs() const;

  void merge(const CallClock& other);

 private:
  void note(Call call, Clock::time_point t0, AllocTally allocs0) {
    CallTotals& totals = (*this)[call];
    totals.seconds += seconds_since(t0);
    totals.allocs += thread_allocs() - allocs0;
  }
};

/// Per-layer figures of one traced pass. Fields a workload has no seam for
/// stay 0 (see README.md for which workload fills which).
struct LayerReport {
  CallClock calls;  ///< merged over every thread of the pass
  double sweep_chunks = 0;
  double sweep_steals = 0;
  double sweep_busy_s = 0;
  double sweep_idle_frac = 0;
  AllocTally sweep_pool_allocs;  ///< parallel-section allocations outside the cell calls
  double oracle_lookups = 0;
  double oracle_hit_ratio = 0;
  double arena_hit_ratio = 0;
  double engine_assemble_s = 0;
  double engine_deliver_s = 0;
  double engine_policy_s = 0;
  double protocol_on_round_s = 0;
  double shard_bytes = 0;
  double fuzz_execs = 0;
  double fuzz_coverage = 0;
  double fuzz_corpus_size = 0;
  double fuzz_useful_ratio = 0;
  double sched_eval_s = 0;
  double fuzz_loop_s = 0;
  AllocTally sched_allocs;
  double unattributed_frac = 0;
  double overhead_frac = 0;
  double wall_s = 0;
};

/// The engine and protocol phase totals of a traced pass, from the
/// Recorder histograms (the engine's phases have no public seam). When
/// the pass timed Engine::run_guarded exactly, the estimates are scaled to
/// sum to that time.
void read_engine_phases(const bsm::obs::Recorder& rec, LayerReport& layers);

/// The traced pass with the median wall time, with trace.overhead_frac
/// set from the medians of every traced and every reference wall time.
[[nodiscard]] LayerReport median_pass(std::vector<LayerReport> traced,
                                      const std::vector<double>& reference_walls);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::optional<std::uint64_t> digest;  ///< the workload's output digest
  std::vector<Metric> metrics;

  /// Record a failed correctness check.
  void fail(const std::string& why);

  /// Every repetition of the workload's work must produce the first
  /// repetition's output digest; a change means the work changed.
  void check_digest(std::uint64_t value);

  [[nodiscard]] bool ok() const { return correct && failed == 0; }
};

/// The samples of an untraced run. Each reported figure is the trimmed mean
/// (kTrim off each end) of its samples, not their median: on a shared host
/// the CPUs switch between a fast and a slow state some 40 % apart, so the
/// samples are bimodal, and a median or a pooled percentile of them jumps
/// from one mode to the other when the share of slow samples crosses its
/// rank, where a mean moves in proportion to that share. The trim drops
/// bursts of outside load.
struct EndToEnd {
  static constexpr double kTrim = 0.1;

  std::vector<double> setup_s;  ///< one per set-up
  /// Unit latencies in ms, one vector per stretch of the run.
  std::vector<std::vector<double>> unit_ms;
  /// True when every vector of unit_ms is one repetition of the same units
  /// in the same order (a grid pass's blocks, a batch of protocol runs):
  /// unit_p50_ms and unit_p90_ms are then percentiles over the distinct
  /// units of each one's trimmed mean latency over its repetitions. False
  /// when the vectors are windows of identical units (groups of fuzz
  /// campaigns): the percentiles are the trimmed means over windows of each
  /// window's percentile.
  bool repeated_units = false;
  /// Throughput of each repetition of the work (a grid pass, a rotation
  /// through the constructions on every CPU, a fuzz campaign), in cells,
  /// runs or execs per second.
  std::vector<double> rates;
};

void add_end_to_end(Report& report, const EndToEnd& e2e);
void add_per_layer(Report& report, const LayerReport& layers);

/// Metrics to stderr; the output digest and then the result JSON line to
/// stdout.
void print_report(const Report& report);

}  // namespace perfbench

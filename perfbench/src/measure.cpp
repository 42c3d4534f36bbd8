#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/hash.hpp"

namespace perfbench {

namespace obs = bsm::obs;

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

double trimmed_mean(std::vector<double> samples, double trim) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto drop = static_cast<std::size_t>(trim * static_cast<double>(samples.size()));
  double sum = 0;
  for (std::size_t i = drop; i < samples.size() - drop; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * drop);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

unsigned workload_threads() {
  auto cpus = static_cast<unsigned>(allowed_cpus().size());
  if (cpus == 0) cpus = std::thread::hardware_concurrency();
  return std::clamp(cpus, 1U, 4U);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

PinnedTo::PinnedTo(int cpu) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

PinnedTo::~PinnedTo() {
  if (pinned_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
}

double recorder_seconds(const obs::Recorder& rec, obs::Span span) {
  const obs::Histogram h = rec.histogram(span);
  double ns = 0;
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    const double lower = static_cast<double>(obs::bucket_lower_bound(i));
    const double mean = i == 0 ? 1.0 : std::min(lower / std::log(2.0), static_cast<double>(h.max_ns));
    ns += mean * static_cast<double>(h.buckets[i]);
  }
  return ns * 1e-9;
}

double CallClock::cell_seconds() const {
  double s = 0;
  for (const Call c : kCellCalls) s += (*this)[c].seconds;
  return s;
}

AllocTally CallClock::cell_allocs() const {
  AllocTally a;
  for (const Call c : kCellCalls) a += (*this)[c].allocs;
  return a;
}

void CallClock::merge(const CallClock& other) {
  for (std::size_t i = 0; i < kCalls; ++i) {
    calls[i].seconds += other.calls[i].seconds;
    calls[i].allocs += other.calls[i].allocs;
  }
  busy_s += other.busy_s;
  rounds += other.rounds;
  messages += other.messages;
  bytes += other.bytes;
}

void read_engine_phases(const obs::Recorder& rec, LayerReport& layers) {
  layers.engine_assemble_s = recorder_seconds(rec, obs::Span::EngineAssemble);
  layers.engine_policy_s = recorder_seconds(rec, obs::Span::EnginePolicy);
  layers.engine_deliver_s = recorder_seconds(rec, obs::Span::EngineDeliver);
  layers.protocol_on_round_s = recorder_seconds(rec, obs::Span::EngineOnRound);
  // Where the pass timed the rounds exactly, split that exact time by the
  // estimated phase shares: the four phases partition a round.
  const double exact = layers.calls[Call::Round].seconds;
  const double estimated = layers.engine_assemble_s + layers.engine_policy_s +
                           layers.engine_deliver_s + layers.protocol_on_round_s;
  if (exact > 0 && estimated > 0) {
    const double scale = exact / estimated;
    layers.engine_assemble_s *= scale;
    layers.engine_policy_s *= scale;
    layers.engine_deliver_s *= scale;
    layers.protocol_on_round_s *= scale;
  }
}

LayerReport median_pass(std::vector<LayerReport> traced, const std::vector<double>& reference_walls) {
  std::vector<double> walls;
  for (const LayerReport& l : traced) walls.push_back(l.wall_s);
  std::sort(traced.begin(), traced.end(),
            [](const LayerReport& a, const LayerReport& b) { return a.wall_s < b.wall_s; });
  LayerReport out = traced[(traced.size() - 1) / 2];
  const double reference = percentile(reference_walls, 50);
  out.overhead_frac = reference > 0 ? percentile(walls, 50) / reference - 1 : 0;
  return out;
}

void Report::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

void Report::check_digest(std::uint64_t value) {
  if (!digest.has_value()) {
    digest = value;
  } else if (*digest != value) {
    std::string why = "output digest ";
    why += bsm::to_hex(value);
    why += " differs from the first repetition's ";
    why += bsm::to_hex(*digest);
    fail(why);
  }
}

void add_end_to_end(Report& report, const EndToEnd& e2e) {
  auto add = [&](const char* name, double value, const char* unit) {
    report.metrics.push_back({name, value, unit});
  };
  std::size_t units = 0;
  for (const std::vector<double>& window : e2e.unit_ms) units += window.size();
  double p50 = 0;
  double p90 = 0;
  if (e2e.repeated_units) {
    // Each distinct unit's latency is the trimmed mean over its repetitions.
    std::size_t distinct = units;
    for (const std::vector<double>& rep : e2e.unit_ms) distinct = std::min(distinct, rep.size());
    std::vector<double> per_unit;
    for (std::size_t j = 0; j < distinct; ++j) {
      std::vector<double> reps;
      for (const std::vector<double>& rep : e2e.unit_ms) reps.push_back(rep[j]);
      per_unit.push_back(trimmed_mean(std::move(reps), EndToEnd::kTrim));
    }
    p50 = percentile(per_unit, 50);
    p90 = percentile(per_unit, 90);
  } else {
    std::vector<double> p50s;
    std::vector<double> p90s;
    for (const std::vector<double>& window : e2e.unit_ms) {
      if (window.empty()) continue;
      p50s.push_back(percentile(window, 50));
      p90s.push_back(percentile(window, 90));
    }
    p50 = trimmed_mean(std::move(p50s), EndToEnd::kTrim);
    p90 = trimmed_mean(std::move(p90s), EndToEnd::kTrim);
  }
  add("units_per_s", trimmed_mean(e2e.rates, EndToEnd::kTrim), "units/s");
  add("unit_p50_ms", p50, "ms");
  add("unit_p90_ms", p90, "ms");
  add("peak_rss_mb", peak_rss_mb(), "MB");
  add("setup_s", trimmed_mean(e2e.setup_s, EndToEnd::kTrim), "s");
  std::fprintf(stderr,
               "perfbench: %zu unit samples in %zu %s, %zu throughput samples, %zu set-up samples\n",
               units, e2e.unit_ms.size(), e2e.repeated_units ? "repetitions" : "windows",
               e2e.rates.size(), e2e.setup_s.size());
}

void add_per_layer(Report& report, const LayerReport& l) {
  const CallClock& c = l.calls;
  auto add = [&](const std::string& name, double value, const char* unit) {
    report.metrics.push_back({name, value, unit});
  };
  auto allocs = [&](const char* layer, AllocTally tally) {
    add(std::string(layer) + ".allocs", static_cast<double>(tally.count), "count");
    add(std::string(layer) + ".alloc_bytes", static_cast<double>(tally.bytes), "B");
  };
  auto sum = [&](std::initializer_list<Call> calls) {
    AllocTally tally;
    for (const Call call : calls) tally += c[call].allocs;
    return tally;
  };

  add("sweep.chunks", l.sweep_chunks, "count");
  add("sweep.steals", l.sweep_steals, "count");
  add("sweep.busy_s", l.sweep_busy_s, "s");
  add("sweep.idle_frac", l.sweep_idle_frac, "ratio");
  add("oracle.lookups", l.oracle_lookups, "count");
  add("oracle.hit_ratio", l.oracle_hit_ratio, "ratio");
  add("oracle.lookup_s", c[Call::OracleLookup].seconds, "s");
  add("scenario.materialize_s", c[Call::Materialize].seconds, "s");
  add("scenario.arena_hit_ratio", l.arena_hit_ratio, "ratio");
  add("runner.assemble_s", c[Call::Assemble].seconds, "s");
  add("engine.rounds", static_cast<double>(c.rounds), "count");
  add("engine.messages", static_cast<double>(c.messages), "count");
  add("engine.bytes", static_cast<double>(c.bytes), "B");
  add("engine.round_s", c[Call::Round].seconds, "s");
  add("engine.assemble_s", l.engine_assemble_s, "s");
  add("engine.deliver_s", l.engine_deliver_s, "s");
  add("engine.policy_s", l.engine_policy_s, "s");
  add("protocol.on_round_s", l.protocol_on_round_s, "s");
  add("properties.check_s", c[Call::Collect].seconds, "s");
  add("shard.render_s", c[Call::Render].seconds, "s");
  add("shard.write_s", c[Call::Write].seconds, "s");
  add("shard.bytes", l.shard_bytes, "B");
  add("fuzz.execs", l.fuzz_execs, "count");
  add("fuzz.coverage", l.fuzz_coverage, "count");
  add("fuzz.corpus_size", l.fuzz_corpus_size, "count");
  add("fuzz.useful_ratio", l.fuzz_useful_ratio, "ratio");
  add("sched.eval_s", l.sched_eval_s, "s");
  add("fuzz.loop_s", l.fuzz_loop_s, "s");

  AllocTally sweep = c[Call::SweepSerial].allocs;
  sweep += l.sweep_pool_allocs;
  allocs("sweep", sweep);
  allocs("oracle", c[Call::OracleLookup].allocs);
  allocs("scenario", c[Call::Materialize].allocs);
  allocs("runner", sum({Call::Assemble, Call::Watch, Call::Teardown}));
  allocs("engine", c[Call::Round].allocs);
  allocs("properties", c[Call::Collect].allocs);
  allocs("shard", sum({Call::Render, Call::Write}));
  allocs("sched", l.sched_allocs);

  add("unattributed_frac", l.unattributed_frac, "ratio");
  add("trace.overhead_frac", l.overhead_frac, "ratio");
}

void print_report(const Report& report) {
  for (const Metric& m : report.metrics) {
    std::fprintf(stderr, "  %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (report.digest.has_value()) {
    std::printf("output_digest %s\n", bsm::to_hex(*report.digest).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              report.ok() ? "true" : "false", report.attempted, report.failed);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench

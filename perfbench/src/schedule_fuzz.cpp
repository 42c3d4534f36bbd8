// schedule_fuzz: sched::Fuzzer inside the fault envelope, as `bsm_cli
// fuzz` runs it, on k = 3, authenticated, fully connected, tL = tR = 1,
// liars battery, one fixed fuzz seed and the default batch of 32.
//
// Every exec goes through the delivery-policy path the other workloads
// bypass, and core.sweep runs as many 32-cell waves with a barrier each
// instead of one long grid. No unit is visible inside Fuzzer::run, so a
// unit of latency is one whole campaign; the campaign is repeated, and
// must report the same FuzzReport every time.
#include <optional>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "sched/fuzz.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bsm;

constexpr std::size_t kMaxExecs = 1024;           // sized so one campaign lasts about 0.1 s
constexpr std::size_t kCampaignsPerWindow = 20;  // campaigns per latency window

[[nodiscard]] core::ScenarioSpec fuzz_scenario(std::uint64_t seed) {
  core::ScenarioSpec s;
  s.config = core::BsmConfig{net::TopologyKind::FullyConnected, true, 3, 1, 1};
  s.input_seed = seed;
  s.pki_seed = seed + 1;
  core::apply_battery(s, core::Battery::Liars, seed);
  return s;
}

[[nodiscard]] sched::FuzzerOptions fuzz_options(std::uint64_t seed, unsigned threads) {
  sched::FuzzerOptions o;
  o.seed = seed;
  o.max_execs = kMaxExecs;
  o.threads = threads;
  return o;
}

[[nodiscard]] std::uint64_t report_digest(const sched::FuzzReport& r) {
  std::uint64_t h = 0;
  for (const std::size_t v : {r.execs, r.corpus_size, r.coverage, r.interesting, r.violations}) {
    h = hash_combine(h, splitmix64(v));
  }
  if (r.counterexample.has_value()) h = hash_combine(h, r.counterexample->digest());
  return h;
}

[[nodiscard]] bool same_report(const sched::FuzzReport& a, const sched::FuzzReport& b) {
  return a.execs == b.execs && a.corpus_size == b.corpus_size && a.coverage == b.coverage &&
         a.interesting == b.interesting && a.violations == b.violations &&
         a.counterexample == b.counterexample && a.counterexample_views == b.counterexample_views &&
         a.shrink_runs == b.shrink_runs;
}

/// Inside the envelope no exec may violate a property (a violation is a
/// library bug), and the campaign must spend its budget.
void check_campaign(const sched::FuzzReport& rep, Report& report) {
  report.attempted += rep.execs;
  report.failed += rep.violations;
  if (rep.execs != kMaxExecs && rep.violations == 0) {
    report.fail("schedule_fuzz: campaign ran " + std::to_string(rep.execs) + " of " +
                std::to_string(kMaxExecs) + " execs");
  }
  report.check_digest(report_digest(rep));
}

}  // namespace

Report run_schedule_fuzz(const RunOptions& opts) {
  Report report;
  const core::ScenarioSpec scenario = fuzz_scenario(opts.seed);
  const unsigned threads = workload_threads();
  const sched::FuzzerOptions options = fuzz_options(opts.seed, threads);

  const Clock::time_point warm = Clock::now();
  do {
    check_campaign(sched::Fuzzer(scenario, options).run(), report);  // checked, untimed
  } while (seconds_since(warm) < kWarmUpSeconds);

  const Clock::time_point start = Clock::now();

  if (!opts.trace) {
    const std::vector<int> cpus = allowed_cpus();
    EndToEnd e2e;
    std::optional<sched::Fuzzer> fuzzer;
    do {
      // Set-up: the constructor's root run and delivery-menu mining, once
      // on each CPU (see seconds_across); the campaign runs unpinned.
      e2e.setup_s.push_back(seconds_across(
          cpus, [&] { fuzzer.reset(); }, [&] { fuzzer.emplace(scenario, options); }));
      const Clock::time_point t0 = Clock::now();
      const sched::FuzzReport rep = fuzzer->run();
      const double dt = seconds_since(t0);
      if (e2e.unit_ms.empty() || e2e.unit_ms.back().size() == kCampaignsPerWindow) {
        e2e.unit_ms.emplace_back();
      }
      e2e.unit_ms.back().push_back(dt * 1e3);
      e2e.rates.push_back(static_cast<double>(rep.execs) / dt);
      check_campaign(rep, report);
    } while (seconds_since(start) < opts.seconds);
    add_end_to_end(report, e2e);
    return report;
  }

  const unsigned width = core::detail::resolve_threads(options.batch, threads);
  std::vector<LayerReport> traced;
  std::vector<double> reference_walls;
  do {
    sched::Fuzzer reference_fuzzer(scenario, options);
    const Clock::time_point r0 = Clock::now();
    const sched::FuzzReport reference = reference_fuzzer.run();
    reference_walls.push_back(seconds_since(r0));
    check_campaign(reference, report);

    sched::Fuzzer fuzzer(scenario, options);
    LayerReport layers;
    obs::Recorder rec;  // histograms and counters: no seam inside Fuzzer::run
    obs::install(&rec);
    const AllocTally main0 = thread_allocs();
    const AllocTally exited0 = exited_thread_allocs();
    const double cpu0 = thread_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const sched::FuzzReport rep = fuzzer.run();
    layers.wall_s = seconds_since(t0);
    layers.fuzz_loop_s = thread_cpu_seconds() - cpu0;
    layers.sched_allocs = thread_allocs() - main0;
    layers.sched_allocs += exited_thread_allocs() - exited0;  // the wave workers, all joined
    obs::install(nullptr);
    if (!same_report(rep, reference)) {
      report.fail("schedule_fuzz: the traced campaign's FuzzReport differs from the untraced one");
    }

    layers.fuzz_execs = static_cast<double>(rep.execs);
    layers.fuzz_coverage = static_cast<double>(rep.coverage);
    layers.fuzz_corpus_size = static_cast<double>(rep.corpus_size);
    layers.fuzz_useful_ratio =
        rep.execs > 0 ? static_cast<double>(rep.interesting) / static_cast<double>(rep.execs) : 0;
    layers.sched_eval_s = recorder_seconds(rec, obs::Span::SchedEval);
    layers.sweep_busy_s = recorder_seconds(rec, obs::Span::SweepChunk);
    layers.sweep_chunks = static_cast<double>(rec.counter_total(obs::Counter::Chunks));
    layers.sweep_steals = static_cast<double>(rec.counter_total(obs::Counter::Steals));
    layers.calls.rounds = rec.counter_total(obs::Counter::EngineRounds);
    read_engine_phases(rec, layers);
    layers.calls[Call::Round].seconds = layers.engine_assemble_s + layers.engine_policy_s +
                                        layers.engine_deliver_s + layers.protocol_on_round_s;
    // The calling thread runs the loop (mutation, fold, pool spawn) and
    // blocks in the wave joins, so its CPU time is the loop and the rest of
    // the wall is waves.
    const double waves_s = layers.wall_s - layers.fuzz_loop_s;
    layers.sweep_idle_frac = waves_s > 0 ? 1 - layers.sweep_busy_s / (width * waves_s) : 0;
    layers.unattributed_frac = 1 - (layers.fuzz_loop_s + layers.sched_eval_s / width) / layers.wall_s;
    traced.push_back(layers);
  } while (seconds_since(start) < opts.seconds);
  add_per_layer(report, median_pass(std::move(traced), reference_walls));
  return report;
}

}  // namespace perfbench

// protocol_runs: one client in a closed loop on one thread, calling
// core::run_bsm as `bsm_cli run` does, on the five constructions
// resolve_protocol selects at k = 8 (n = 16).
//
// Long runs — up to 41 rounds and about 2 x 10^5 messages — where engine
// delivery, broadcast tallies, chain verification and relays do almost
// all the work and the sweep, oracle and shard layers do almost none: an
// engine or protocol change must show here, a scheduler change must not.
#include <algorithm>
#include <optional>
#include <vector>

#include "chain.hpp"
#include "common/hash.hpp"
#include "core/oracle.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bsm;

constexpr std::uint32_t kK = 8;
constexpr std::uint64_t kRotations = 32;  // rotations through the constructions per batch
constexpr int kSetupSamples = 4;          // set-up samples per batch

struct Construction {
  core::BsmConfig config;
  std::uint32_t silent_l = 0;
  std::uint32_t silent_r = 0;
};

/// The five constructions at k = 8, each with the setting and silent-fault
/// plan bench/cases/cases_protocols.cpp gives it.
[[nodiscard]] std::vector<Construction> constructions() {
  constexpr std::uint32_t third = (kK - 1) / 3;
  return {
      {{net::TopologyKind::FullyConnected, true, kK, kK / 2, kK / 2}, 1, 1},  // BTM / Dolev-Strong
      {{net::TopologyKind::Bipartite, true, kK, kK - 1, kK - 1}, 1, 1},       // BTM / DS signed relay
      {{net::TopologyKind::FullyConnected, false, kK, third, third}, 0, 1},   // BTM / product
      {{net::TopologyKind::OneSided, false, kK, third, (kK - 1) / 2}, 0, 1},  // BTM / product, majority relay
      {{net::TopologyKind::Bipartite, true, kK, third, kK}, 0, kK},           // Pi_bSM, all of R silent
  };
}

[[nodiscard]] core::AdversaryDesc silent(PartyId id) {
  core::AdversaryDesc desc;
  desc.kind = core::AdversaryDesc::Kind::Silent;
  desc.id = id;
  return desc;
}

/// One batch: kRotations rotations through the constructions, rotation r
/// on inputs and PKI keys seeded from (workload seed, r).
[[nodiscard]] std::vector<core::ScenarioSpec> batch(std::uint64_t seed) {
  std::vector<core::ScenarioSpec> out;
  for (std::uint64_t r = 0; r < kRotations; ++r) {
    const std::uint64_t input_seed = splitmix64(seed * kRotations + r);
    for (const Construction& c : constructions()) {
      core::ScenarioSpec s;
      s.config = c.config;
      s.input_seed = input_seed;
      s.pki_seed = input_seed + 1;
      for (std::uint32_t i = 0; i < c.silent_l && i < c.config.tl; ++i) s.adversaries.push_back(silent(i));
      for (std::uint32_t i = 0; i < c.silent_r && i < c.config.tr; ++i) {
        s.adversaries.push_back(silent(kK + i));
      }
      out.push_back(std::move(s));
    }
  }
  return out;
}

/// A run is right when it ran the resolved construction to exactly its
/// closed-form round count and every honest party decided, with all four
/// properties held.
[[nodiscard]] bool run_ok(const core::ScenarioSpec& scenario, const core::RunOutcome& out) {
  const auto spec = core::resolve_protocol(scenario.config);
  return spec.has_value() && out.spec == *spec && out.report.all() && out.terminated &&
         !out.round_limit_hit && out.rounds == spec->total_rounds + scenario.extra_rounds;
}

}  // namespace

Report run_protocol_runs(const RunOptions& opts) {
  Report report;
  const std::vector<core::ScenarioSpec> scenarios = batch(opts.seed);

  const Clock::time_point warm = Clock::now();
  for (std::size_t i = 0; seconds_since(warm) < kWarmUpSeconds; i = (i + 1) % scenarios.size()) {
    ++report.attempted;  // checked, untimed
    if (!run_ok(scenarios[i], core::run_bsm(core::to_run_spec(scenarios[i])))) ++report.failed;
  }

  const Clock::time_point start = Clock::now();

  if (!opts.trace) {
    // Each rotation runs pinned to the next CPU, and a throughput sample
    // spans one rotation on every CPU, so that no one CPU's slow spell
    // decides a sample (see seconds_across). Every batch starts one CPU
    // further on, so each run's repetitions visit every CPU.
    const std::vector<int> cpus = allowed_cpus();
    const std::size_t per_sample = std::max<std::size_t>(1, cpus.size());
    const std::size_t per_rotation = scenarios.size() / kRotations;
    std::size_t rotations = 0;
    double sample_s = 0;
    EndToEnd e2e;
    e2e.repeated_units = true;  // every batch runs the same specs in the same order
    do {
      // Set-up: materialize the batch's run specs (run_bsm consumes them),
      // sampled a few times per batch.
      std::vector<core::RunSpec> specs;
      for (int i = 0; i < kSetupSamples; ++i) {
        e2e.setup_s.push_back(seconds_across(
            cpus, [&] { std::vector<core::RunSpec>().swap(specs); },
            [&] {
              specs.reserve(scenarios.size());
              for (const core::ScenarioSpec& s : scenarios) specs.push_back(core::to_run_spec(s));
            }));
      }

      std::uint64_t digest = 0;
      std::vector<double>& latencies = e2e.unit_ms.emplace_back();
      const std::size_t batch_index = e2e.unit_ms.size();
      for (std::size_t i = 0; i < specs.size(); i += per_rotation, ++rotations) {
        std::optional<PinnedTo> pin;
        if (!cpus.empty()) pin.emplace(cpus[(rotations + batch_index) % cpus.size()]);
        for (std::size_t j = i; j < i + per_rotation; ++j) {
          const Clock::time_point t0 = Clock::now();
          const core::RunOutcome out = core::run_bsm(std::move(specs[j]));
          const double dt = seconds_since(t0);
          latencies.push_back(dt * 1e3);
          sample_s += dt;
          ++report.attempted;
          if (!run_ok(scenarios[j], out)) ++report.failed;
          digest = fold_outcome(digest, out);
        }
        if ((rotations + 1) % per_sample == 0) {
          e2e.rates.push_back(static_cast<double>(per_sample * per_rotation) / sample_s);
          sample_s = 0;
        }
      }
      report.check_digest(digest);
    } while (seconds_since(start) < opts.seconds);
    add_end_to_end(report, e2e);
    return report;
  }

  std::vector<LayerReport> traced;
  std::vector<double> reference_walls;
  do {
    // Reference: the entry point itself, over the same span of work as the
    // traced chain (materialization included).
    std::vector<core::RunOutcome> reference;
    reference.reserve(scenarios.size());
    const Clock::time_point r0 = Clock::now();
    for (const core::ScenarioSpec& s : scenarios) reference.push_back(core::run_bsm(core::to_run_spec(s)));
    reference_walls.push_back(seconds_since(r0));
    std::uint64_t digest = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ++report.attempted;
      if (!run_ok(scenarios[i], reference[i])) ++report.failed;
      digest = fold_outcome(digest, reference[i]);
    }
    report.check_digest(digest);

    LayerReport layers;
    std::vector<core::RunOutcome> outcomes;
    outcomes.reserve(scenarios.size());
    obs::Recorder rec;  // histograms only, for the engine phases
    obs::install(&rec);
    const Clock::time_point t0 = Clock::now();
    for (const core::ScenarioSpec& s : scenarios) {
      outcomes.push_back(traced_run(s, nullptr, std::nullopt, layers.calls));
    }
    layers.wall_s = seconds_since(t0);
    obs::install(nullptr);
    if (outcomes != reference) {
      report.fail("protocol_runs: the traced chain's RunOutcomes differ from run_bsm's");
    }
    read_engine_phases(rec, layers);
    layers.unattributed_frac = 1 - layers.calls.cell_seconds() / layers.wall_s;
    traced.push_back(layers);
  } while (seconds_since(start) < opts.seconds);
  add_per_layer(report, median_pass(std::move(traced), reference_walls));
  return report;
}

}  // namespace perfbench

// Sweep-layer case groups — the experiments that fan whole scenario grids
// out through run_sweep()/run_cells(): solvability_grid (E1, the paper's
// results grid), fault_crossover (E10, the Theorem 4/7 threshold figure),
// and ablation (E9, quorum structure + suggestion policy).
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "adversary/shims.hpp"
#include "adversary/strategies.hpp"
#include "broadcast/phase_king.hpp"
#include "broadcast/quorums.hpp"
#include "cases/cases.hpp"
#include "cases/digest.hpp"
#include "common/codec.hpp"
#include "common/hash.hpp"
#include "core/bench.hpp"
#include "core/pi_bsm.hpp"
#include "core/sweep.hpp"
#include "matching/generators.hpp"
#include "net/engine.hpp"

namespace bsm::benchcases {
namespace {

using namespace bsm;
using core::BenchContext;
using core::BenchRun;
using net::TopologyKind;

/// Fold a whole sweep into one BenchRun: cells executed, traffic and view
/// hashes accumulated, `ok` left to the caller's aggregation.
void accumulate(BenchRun& run, const std::vector<core::CellResult>& results) {
  run.cells += results.size();
  for (const auto& cell : results) {
    run.digest = hash_combine(run.digest, splitmix64(cell.solvable));
    if (!cell.outcome.has_value()) continue;
    const auto& out = *cell.outcome;
    run.rounds += out.rounds;
    run.messages += out.traffic.messages;
    run.bytes += out.traffic.bytes;
    run.digest = digest_outcome(run.digest, out);
  }
}

// ------------------------------------------------------- solvability grid

/// E1: run the grid and check it reproduces the paper's characterization —
/// every solvable (topology, auth, k, tL, tR) cell must hold all four bSM
/// properties across every seed x battery run under it.
[[nodiscard]] BenchRun run_solvability_grid(const BenchContext& ctx,
                                            std::vector<std::uint32_t> ks,
                                            std::vector<std::uint64_t> seeds,
                                            std::vector<core::Battery> batteries) {
  core::SweepGrid grid;
  grid.topologies = {TopologyKind::FullyConnected, TopologyKind::OneSided,
                     TopologyKind::Bipartite};
  grid.auths = {false, true};
  grid.ks = std::move(ks);
  grid.seeds = std::move(seeds);
  grid.batteries = std::move(batteries);
  // Fresh cache per execution: against the warm process-global cache the
  // timing would depend on which cases ran earlier in the same process,
  // making medians incomparable across invocation contexts.
  core::OracleCache cache;
  core::SweepOptions opts{.threads = ctx.threads};
  opts.oracle = &cache;
  const auto results = core::run_sweep(grid.cells(), opts);

  std::map<std::tuple<TopologyKind, bool, std::uint32_t, std::uint32_t, std::uint32_t>, bool> ok;
  for (const auto& cell : results) {
    if (!cell.solvable) continue;
    const auto& cfg = cell.scenario.config;
    auto [it, inserted] = ok.try_emplace(
        std::make_tuple(cfg.topology, cfg.authenticated, cfg.k, cfg.tl, cfg.tr), true);
    it->second &= cell.ok();
  }

  BenchRun run;
  accumulate(run, results);
  for (const auto& [key, cell_ok] : ok) run.ok &= cell_ok;
  return run;
}

// -------------------------------------------------------- fault crossover

/// One crossover cell: `corrupt_r` relays run the split-brain relay attack
/// against the (forced) construction, with trial-specific workload seeds.
[[nodiscard]] core::ScenarioSpec crossover_cell(const core::BsmConfig& cfg,
                                                const core::ProtocolSpec& proto,
                                                std::uint32_t corrupt_r, int trial) {
  core::ScenarioSpec cell;
  cell.config = cfg;
  cell.input_seed = 100 + trial;
  cell.pki_seed = trial + 1;
  cell.forced_spec = proto;
  for (std::uint32_t i = 0; i < corrupt_r; ++i) {
    core::AdversaryDesc desc;
    desc.kind = core::AdversaryDesc::Kind::SplitBrainRelay;
    desc.id = cfg.k + i;
    cell.adversaries.push_back(desc);
  }
  return cell;
}

/// E10: sweep corrupted-relay counts on the one-sided topology. The
/// unauthenticated majority-relay construction must hold strictly below
/// k/2 corrupt relays (Theorem 4); authenticated Pi_bSM must hold all the
/// way to tR = k (Theorem 7).
[[nodiscard]] BenchRun run_fault_crossover(const BenchContext& ctx, std::uint32_t k, int trials) {
  const core::BsmConfig unauth{TopologyKind::OneSided, false, k, 0, (k - 1) / 2};
  const auto unauth_proto = *core::resolve_protocol(unauth);
  const core::BsmConfig auth{TopologyKind::OneSided, true, k, 0, k};
  const auto auth_proto = *core::resolve_protocol(auth);

  std::vector<core::ScenarioSpec> cells;
  for (std::uint32_t c = 0; c <= k; ++c) {
    for (int s = 0; s < trials; ++s) cells.push_back(crossover_cell(unauth, unauth_proto, c, s));
    for (int s = 0; s < trials; ++s) cells.push_back(crossover_cell(auth, auth_proto, c, s));
  }
  core::OracleCache cache;  // fresh per execution, see run_solvability_grid
  core::SweepOptions opts{.threads = ctx.threads};
  opts.oracle = &cache;
  const auto results = core::run_sweep(cells, opts);

  const auto hold_rate = [&](std::size_t first) {
    int held = 0;
    for (int s = 0; s < trials; ++s) held += results[first + s].ok();
    return static_cast<double>(held) / trials;
  };

  BenchRun run;
  accumulate(run, results);
  for (std::uint32_t c = 0; c <= k; ++c) {
    const std::size_t base = static_cast<std::size_t>(c) * 2 * trials;
    run.ok &= hold_rate(base + trials) == 1.0;          // Theorem 7: auth never breaks
    if (2 * c < k) run.ok &= hold_rate(base) == 1.0;    // Theorem 4: below k/2 holds
  }
  return run;
}

// --------------------------------------------------------------- ablation

/// Hosts one PhaseKingBA instance (ablation A helper).
class Host final : public net::Process {
 public:
  Host(std::vector<PartyId> parts, std::unique_ptr<broadcast::Instance> inst)
      : hub_(net::RelayMode::Direct, 1) {
    hub_.add_instance(0, 0, std::move(parts), std::move(inst));
  }
  void on_round(net::Context& ctx, net::Inbox inbox) override {
    hub_.ingest(ctx, inbox);
    hub_.step_due(ctx);
  }
  [[nodiscard]] const broadcast::Instance& instance() const { return hub_.instance(0); }

 private:
  broadcast::InstanceHub hub_;
};

/// Run agreement over all 2k parties with `byz` split-brain equivocators;
/// returns true iff all honest outputs agree.
[[nodiscard]] bool agreement_holds(std::uint32_t k, const std::vector<PartyId>& byz,
                                   const std::shared_ptr<const broadcast::Quorums>& q,
                                   std::uint64_t seed) {
  net::Engine engine(net::Topology(TopologyKind::FullyConnected, k), seed);
  std::vector<PartyId> parts;
  for (PartyId id = 0; id < 2 * k; ++id) parts.push_back(id);
  const std::set<PartyId> byz_set(byz.begin(), byz.end());
  for (PartyId id = 0; id < 2 * k; ++id) {
    const Bytes input{static_cast<std::uint8_t>(id % 2 ? 1 : 2)};
    if (byz_set.contains(id)) {
      auto conspirators = byz_set;
      engine.set_corrupt(
          id, std::make_unique<adversary::SplitBrain>(
                  std::make_unique<Host>(parts,
                                         std::make_unique<broadcast::PhaseKingBA>(Bytes{7}, q)),
                  std::make_unique<Host>(parts,
                                         std::make_unique<broadcast::PhaseKingBA>(Bytes{8}, q)),
                  [](PartyId p) { return static_cast<int>(p % 2); }, conspirators));
    } else {
      engine.set_process(
          id, std::make_unique<Host>(parts, std::make_unique<broadcast::PhaseKingBA>(input, q)));
    }
  }
  const std::uint32_t steps = 3 * q->num_phases();
  engine.run_guarded(steps + 2);
  std::set<Bytes> outputs;
  for (PartyId id = 0; id < 2 * k; ++id) {
    if (byz_set.contains(id)) continue;
    const auto& inst = dynamic_cast<Host&>(engine.process(id)).instance();
    if (!inst.done() || !inst.output().has_value()) return false;
    outputs.insert(*inst.output());
  }
  return outputs.size() <= 1;
}

/// One ablation-A trial: in-region corruption pattern at size k, judged
/// under product-structure or naive-threshold quorums.
struct QuorumCell {
  std::uint32_t k = 0;
  bool product = true;
  std::uint64_t seed = 0;
};

/// E9(A): general-adversary quorums vs a naive total threshold, under a
/// split-brain battery beyond n/3 total corruption. ok iff the product
/// quorums always hold agreement AND the naive threshold demonstrably
/// breaks (the gap the paper's Lemma 4 machinery exists for).
[[nodiscard]] BenchRun run_quorum_ablation(const BenchContext& ctx, int trials) {
  std::vector<QuorumCell> cells;
  for (const std::uint32_t k : {4U, 6U}) {
    for (const bool product : {true, false}) {
      for (int s = 0; s < trials; ++s) {
        cells.push_back({k, product, 10ULL + static_cast<std::uint64_t>(s)});
      }
    }
  }
  const auto results = core::run_cells(
      cells,
      [](const QuorumCell& cell) {
        // Corrupt 1 left + (k-1) right: in-region (tL < k/3) but far beyond n/3.
        std::vector<PartyId> byz{1};
        for (std::uint32_t i = 0; i + 1 < cell.k; ++i) byz.push_back(cell.k + i);
        const std::uint32_t tl = 1;
        const std::uint32_t tr = cell.k - 1;
        const std::shared_ptr<const broadcast::Quorums> q =
            cell.product ? std::shared_ptr<const broadcast::Quorums>(
                               std::make_shared<const broadcast::ProductQuorums>(cell.k, tl, tr))
                         : std::make_shared<const broadcast::ThresholdQuorums>(2 * cell.k,
                                                                               tl + tr);
        return static_cast<int>(agreement_holds(cell.k, byz, q, cell.seed));
      },
      {.threads = ctx.threads});

  BenchRun run;
  run.cells = cells.size();
  bool gap = false;
  for (std::size_t base = 0; base < cells.size(); base += 2 * static_cast<std::size_t>(trials)) {
    int product_ok = 0;
    int naive_ok = 0;
    for (int s = 0; s < trials; ++s) {
      product_ok += results[base + s];
      naive_ok += results[base + trials + s];
    }
    gap |= product_ok == trials && naive_ok < trials;
  }
  for (const int r : results) run.digest = hash_combine(run.digest, splitmix64(r));
  run.ok = gap;
  return run;
}

/// Byzantine A party that immediately sends every B party a forged
/// suggestion "match me" (ablation B helper).
class SuggestionForger final : public net::Process {
 public:
  explicit SuggestionForger(std::uint32_t k) : k_(k) {}
  void on_round(net::Context& ctx, net::Inbox) override {
    if (ctx.round() != 0) return;
    for (PartyId b = k_; b < 2 * k_; ++b) {
      Writer inner;
      inner.u32(ctx.self());  // "your match is me"
      Writer frame;
      frame.u32(core::pi_bsm_suggest_channel(k_));
      frame.bytes(inner.data());
      Writer direct;
      direct.u8(0);  // relay Direct tag
      direct.bytes(frame.data());
      ctx.send(b, direct.data());
    }
  }

 private:
  std::uint32_t k_;
};

/// One ablation-B trial: run Pi_bSM with the given R-side suggestion policy
/// against one forging A party; returns the property report.
[[nodiscard]] core::PropertyReport forger_report(const core::SuggestionPolicy& policy) {
  const std::uint32_t k = 4;
  const core::BsmConfig cfg{TopologyKind::Bipartite, true, k, 1, 4};
  const auto proto = *core::resolve_protocol(cfg);
  const auto inputs = matching::random_profile(k, 3);
  net::Engine engine(net::Topology(cfg.topology, k), 1);
  for (PartyId id = 0; id < 2 * k; ++id) {
    if (side_of(id, k) == Side::Left) {
      engine.set_process(id, core::make_bsm_process(cfg, proto, id, inputs.list(id)));
    } else {
      engine.set_process(id, std::make_unique<core::PiBsmOther>(cfg, Side::Left, id,
                                                                inputs.list(id), policy));
    }
  }
  engine.set_corrupt(0, std::make_unique<SuggestionForger>(k));
  engine.run_guarded(proto.total_rounds + 2);

  std::vector<std::optional<PartyId>> decisions(2 * k);
  for (PartyId id = 0; id < 2 * k; ++id) {
    if (engine.is_corrupt(id)) continue;
    const auto& p = engine.process_as<core::BsmProcess>(id);
    if (p.decided()) decisions[id] = p.decision();
  }
  return core::check_bsm(k, engine.corrupt_mask(), inputs, decisions);
}

/// E9(B): Pi_bSM's "most common suggestion" rule vs trusting the first
/// suggestion received. ok iff the paper's rule survives the forger and
/// the naive rule demonstrably does not. `paper_policy_only` is the smoke
/// variant: just the paper's rule, which must hold.
[[nodiscard]] BenchRun run_suggestion_ablation(const BenchContext& ctx, bool paper_policy_only) {
  std::vector<core::SuggestionPolicy> policies{core::SuggestionPolicy::MostCommon};
  if (!paper_policy_only) policies.push_back(core::SuggestionPolicy::FirstReceived);
  const auto reports = core::run_cells(policies, forger_report, {.threads = ctx.threads});
  BenchRun run;
  run.cells = policies.size();
  for (const auto& rep : reports) run.digest = hash_combine(run.digest, splitmix64(rep.all()));
  run.ok = reports[0].all() && (paper_policy_only || !reports[1].all());
  return run;
}

}  // namespace

void register_solvability_grid() {
  core::register_bench({"solvability_grid/full_k3_k4",
                        [](const BenchContext& ctx) {
                          return run_solvability_grid(
                              ctx, {3, 4}, {1, 2, 3},
                              {core::Battery::Silent, core::Battery::Noise, core::Battery::Liars,
                               core::Battery::AdaptiveCrash});
                        },
                        /*repeats=*/2});
  core::register_bench({"solvability_grid/smoke",
                        [](const BenchContext& ctx) {
                          return run_solvability_grid(ctx, {3}, {1}, {core::Battery::Silent});
                        }});
}

void register_fault_crossover() {
  core::register_bench({"fault_crossover/k4",
                        [](const BenchContext& ctx) { return run_fault_crossover(ctx, 4, 5); }});
  core::register_bench({"fault_crossover/smoke",
                        [](const BenchContext& ctx) { return run_fault_crossover(ctx, 4, 2); }});
}

void register_ablation() {
  core::register_bench({"ablation/quorums",
                        [](const BenchContext& ctx) { return run_quorum_ablation(ctx, 5); }});
  core::register_bench({"ablation/suggestion_policy",
                        [](const BenchContext& ctx) {
                          return run_suggestion_ablation(ctx, false);
                        }});
  core::register_bench({"ablation/smoke",
                        [](const BenchContext& ctx) {
                          return run_suggestion_ablation(ctx, true);
                        }});
}

}  // namespace bsm::benchcases

// Impossibility and reduction case groups: attack_lemma5/7/13 (E3/E4/E5,
// the paper's executable impossibility proofs run at their exact
// thresholds) and lemma3 (E12, the group-simulation reduction's overhead).
//
// Each attack case runs the out-of-threshold attack AND its in-region
// twin: ok iff the attack breaks the property the proof predicts while
// the twin (same adversarial style, one corruption fewer) holds all four
// — together they exhibit the exact boundary the theorem claims.
#include <cstdint>
#include <vector>

#include "adversary/attacks.hpp"
#include "adversary/strategies.hpp"
#include "cases/cases.hpp"
#include "cases/digest.hpp"
#include "common/hash.hpp"
#include "core/bench.hpp"
#include "core/lemma3.hpp"
#include "core/runner.hpp"
#include "core/ssm.hpp"
#include "matching/generators.hpp"

namespace bsm::benchcases {
namespace {

using namespace bsm;
using core::BenchContext;
using core::BenchRun;

void accumulate(BenchRun& run, const core::RunOutcome& out) {
  ++run.cells;
  run.rounds += out.rounds;
  run.messages += out.traffic.messages;
  run.bytes += out.traffic.bytes;
  run.digest = digest_outcome(run.digest, out);
}

/// `with_twin` also runs the in-region twin (the full boundary exhibit);
/// the smoke variant runs the attack half alone.
[[nodiscard]] BenchRun run_lemma5(bool with_twin) {
  auto art = adversary::build_lemma5();
  const auto attack = core::run_bsm(std::move(art.attack));
  BenchRun run;
  accumulate(run, attack);
  const bool collided = attack.decisions[art.a].has_value() &&
                        attack.decisions[art.a] == attack.decisions[art.c] &&
                        *attack.decisions[art.a] == art.v;
  run.ok = collided && !attack.report.non_competition;
  if (with_twin) {
    const auto in_region = core::run_bsm(std::move(art.in_region));
    accumulate(run, in_region);
    run.ok &= in_region.report.all();
  }
  return run;
}

[[nodiscard]] BenchRun run_lemma7(bool with_twin) {
  auto art = adversary::build_lemma7();
  const auto attack = core::run_bsm(std::move(art.attack));
  BenchRun run;
  accumulate(run, attack);
  run.ok = !attack.report.all();
  if (with_twin) {
    const auto in_region = core::run_bsm(std::move(art.in_region));
    accumulate(run, in_region);
    run.ok &= in_region.report.all();
  }
  return run;
}

/// `full` checks the proof's three pieces — byte-exact indistinguishability
/// of a AND c from their crash baselines, the forced non-competition
/// violation, and the in-region twin holding (Theorem 7's positive side);
/// the smoke variant checks only a's indistinguishability (half the runs).
[[nodiscard]] BenchRun run_lemma13(bool full) {
  auto art1 = adversary::build_lemma13();
  auto art2 = adversary::build_lemma13();
  const auto attack = core::run_bsm(std::move(art1.attack));
  const auto base_a = core::run_bsm(std::move(art2.baseline_a));
  BenchRun run;
  accumulate(run, attack);
  accumulate(run, base_a);
  const bool indist_a = attack.view_hashes[art1.a] == base_a.view_hashes[art1.a];
  run.ok = indist_a && !attack.report.non_competition;
  if (full) {
    auto art3 = adversary::build_lemma13();
    auto art4 = adversary::build_lemma13();
    const auto base_c = core::run_bsm(std::move(art3.baseline_c));
    const auto in_region = core::run_bsm(std::move(art4.in_region));
    accumulate(run, base_c);
    accumulate(run, in_region);
    run.ok &= attack.view_hashes[art1.c] == base_c.view_hashes[art1.c];
    run.ok &= in_region.report.all();
  }
  return run;
}

// ----------------------------------------------------------------- lemma3

struct Lemma3Cost {
  Round rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  bool clean = false;
};

[[nodiscard]] Lemma3Cost run_native(std::uint32_t d, std::uint64_t seed, BenchRun& run) {
  core::RunSpec spec;
  spec.config = core::BsmConfig{net::TopologyKind::FullyConnected, false, d, 0, 0};
  spec.inputs = matching::random_profile(d, seed);
  const auto out = core::run_bsm(std::move(spec));
  accumulate(run, out);
  return {out.rounds, out.traffic.messages, out.traffic.bytes, out.report.all()};
}

[[nodiscard]] Lemma3Cost run_simulated(std::uint32_t big_k, std::uint32_t d, std::uint64_t seed,
                                       BenchRun& run) {
  const core::BsmConfig big{net::TopologyKind::FullyConnected, false, big_k, 0, 0};
  const auto proto = *core::resolve_protocol(big);
  net::Engine engine(net::Topology(big.topology, d), seed);
  const auto inputs = matching::random_profile(d, seed);
  for (PartyId id = 0; id < 2 * d; ++id) {
    engine.set_process(
        id, std::make_unique<core::GroupSimulation>(big, proto, d, id, inputs.list(id), 55));
  }
  engine.run_guarded(proto.total_rounds + 2);
  std::vector<std::optional<PartyId>> decisions(2 * d);
  for (PartyId id = 0; id < 2 * d; ++id) {
    const auto& p = engine.process_as<core::BsmProcess>(id);
    if (p.decided()) decisions[id] = p.decision();
  }
  const auto report = core::check_ssm(d, std::vector<bool>(2 * d, false),
                                      matching::favorites_of(inputs), decisions);
  ++run.cells;
  run.rounds += proto.total_rounds + 2;
  run.messages += engine.stats().messages;
  run.bytes += engine.stats().bytes;
  for (PartyId id = 0; id < 2 * d; ++id) {
    run.digest = hash_combine(run.digest, engine.view_hash(id));
  }
  return {proto.total_rounds + 2, engine.stats().messages, engine.stats().bytes, report.all()};
}

/// E12: the Lemma 3 reduction's message/byte premium over the native
/// protocol. ok iff every native and simulated run keeps the sSM
/// properties AND the reduction preserves the schedule (identical round
/// counts, as the paper argues) while actually paying a message premium.
[[nodiscard]] BenchRun run_lemma3_overhead(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  BenchRun run;
  for (const auto& [d, big_k] : pairs) {
    const auto native = run_native(d, d + big_k, run);
    const auto simulated = run_simulated(big_k, d, d + big_k, run);
    run.ok &= native.clean && simulated.clean;
    run.ok &= native.rounds == simulated.rounds;
    run.ok &= simulated.messages > native.messages && simulated.bytes > native.bytes;
  }
  return run;
}

}  // namespace

void register_attack_lemma5() {
  core::register_bench(
      {"attack_lemma5/boundary", [](const BenchContext&) { return run_lemma5(true); }});
  core::register_bench(
      {"attack_lemma5/smoke", [](const BenchContext&) { return run_lemma5(false); }});
}

void register_attack_lemma7() {
  core::register_bench(
      {"attack_lemma7/boundary", [](const BenchContext&) { return run_lemma7(true); }});
  core::register_bench(
      {"attack_lemma7/smoke", [](const BenchContext&) { return run_lemma7(false); }});
}

void register_attack_lemma13() {
  core::register_bench({"attack_lemma13/indistinguishability",
                        [](const BenchContext&) { return run_lemma13(true); }});
  core::register_bench(
      {"attack_lemma13/smoke", [](const BenchContext&) { return run_lemma13(false); }});
}

void register_lemma3() {
  core::register_bench({"lemma3/overhead", [](const BenchContext&) {
                          return run_lemma3_overhead(
                              {{2U, 4U}, {2U, 6U}, {3U, 6U}, {3U, 9U}});
                        }});
  core::register_bench({"lemma3/smoke", [](const BenchContext&) {
                          return run_lemma3_overhead({{2U, 4U}});
                        }});
}

}  // namespace bsm::benchcases

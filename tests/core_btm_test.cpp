// End-to-end tests of the broadcast-then-match protocol (Lemma 1) across
// topologies, cryptographic settings, and adversary batteries.
#include <gtest/gtest.h>

#include "adversary/strategies.hpp"
#include "core/oracle.hpp"
#include "core/runner.hpp"
#include "matching/generators.hpp"
#include "matching/stability.hpp"

namespace bsm::core {
namespace {

using net::TopologyKind;

RunSpec make_spec(TopologyKind topo, bool auth, std::uint32_t k, std::uint32_t tl,
                  std::uint32_t tr, std::uint64_t seed) {
  RunSpec spec;
  spec.config = BsmConfig{topo, auth, k, tl, tr};
  spec.inputs = matching::random_profile(k, seed);
  spec.pki_seed = seed + 1;
  return spec;
}

TEST(Btm, FaultFreeAuthFullyConnectedMatchesOfflineGaleShapley) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto spec = make_spec(TopologyKind::FullyConnected, true, 4, 2, 2, seed);
    const auto expected = matching::gale_shapley(spec.inputs).matching;
    const auto out = run_bsm(std::move(spec));
    EXPECT_TRUE(out.report.all()) << out.report.summary();
    for (PartyId id = 0; id < 8; ++id) {
      ASSERT_TRUE(out.decisions[id].has_value());
      EXPECT_EQ(*out.decisions[id], expected[id]);
    }
  }
}

TEST(Btm, FaultFreeUnauthFullyConnectedMatchesOfflineGaleShapley) {
  auto spec = make_spec(TopologyKind::FullyConnected, false, 3, 0, 2, 7);
  const auto expected = matching::gale_shapley(spec.inputs).matching;
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all());
  for (PartyId id = 0; id < 6; ++id) EXPECT_EQ(out.decisions[id], expected[id]);
}

struct Cell {
  TopologyKind topo;
  bool auth;
  std::uint32_t k, tl, tr;
};

class BtmSolvableCells : public ::testing::TestWithParam<Cell> {};

TEST_P(BtmSolvableCells, SilentByzantineWithinBudget) {
  const Cell c = GetParam();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    auto spec = make_spec(c.topo, c.auth, c.k, c.tl, c.tr, seed * 13 + 1);
    // Corrupt the full budget with silent parties (worst count).
    for (std::uint32_t i = 0; i < c.tl; ++i) {
      spec.adversaries.push_back({i, 0, std::make_unique<adversary::Silent>()});
    }
    for (std::uint32_t i = 0; i < c.tr; ++i) {
      spec.adversaries.push_back({c.k + i, 0, std::make_unique<adversary::Silent>()});
    }
    const auto out = run_bsm(std::move(spec));
    EXPECT_TRUE(out.report.all())
        << BsmConfig{c.topo, c.auth, c.k, c.tl, c.tr}.describe() << " seed=" << seed << " -> "
        << out.report.summary();
  }
}

TEST_P(BtmSolvableCells, NoiseByzantineWithinBudget) {
  const Cell c = GetParam();
  auto spec = make_spec(c.topo, c.auth, c.k, c.tl, c.tr, 77);
  for (std::uint32_t i = 0; i < c.tl; ++i) {
    spec.adversaries.push_back({i, 0, std::make_unique<adversary::RandomNoise>(i + 1, 4)});
  }
  for (std::uint32_t i = 0; i < c.tr; ++i) {
    spec.adversaries.push_back({c.k + i, 0, std::make_unique<adversary::RandomNoise>(i + 50, 4)});
  }
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
}

TEST_P(BtmSolvableCells, LyingInputsStillSatisfyProperties) {
  // Byzantine parties run the honest protocol with fabricated preference
  // lists (Roth's manipulation model): all bSM properties must still hold
  // with respect to the honest parties' true inputs.
  const Cell c = GetParam();
  auto spec = make_spec(c.topo, c.auth, c.k, c.tl, c.tr, 31);
  const auto lie = matching::contested_profile(c.k);
  for (std::uint32_t i = 0; i < c.tl; ++i) {
    spec.adversaries.push_back({i, 0, honest_process_for(spec, i, lie.list(i))});
  }
  for (std::uint32_t i = 0; i < c.tr; ++i) {
    spec.adversaries.push_back({c.k + i, 0, honest_process_for(spec, c.k + i, lie.list(c.k + i))});
  }
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
}

TEST_P(BtmSolvableCells, AdaptiveMidRunCrash) {
  const Cell c = GetParam();
  auto spec = make_spec(c.topo, c.auth, c.k, c.tl, c.tr, 59);
  // Corrupt one party per side (if budgeted) a few rounds in.
  if (c.tl > 0) spec.adversaries.push_back({0, 3, std::make_unique<adversary::Silent>()});
  if (c.tr > 0) spec.adversaries.push_back({c.k, 2, std::make_unique<adversary::Silent>()});
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Cells, BtmSolvableCells,
    ::testing::Values(
        Cell{TopologyKind::FullyConnected, true, 3, 1, 1},    // Dolev-Strong direct
        Cell{TopologyKind::FullyConnected, true, 4, 3, 2},    // heavy corruption
        Cell{TopologyKind::FullyConnected, false, 3, 0, 1},   // product BB
        Cell{TopologyKind::FullyConnected, false, 4, 1, 4},   // one side all-byz budget
        Cell{TopologyKind::OneSided, true, 3, 2, 2},          // signed relay
        Cell{TopologyKind::OneSided, false, 4, 1, 1},         // majority relay
        Cell{TopologyKind::Bipartite, true, 3, 2, 2},         // signed relay both ways
        Cell{TopologyKind::Bipartite, false, 4, 1, 1}),       // majority both ways
    [](const ::testing::TestParamInfo<Cell>& info) {
      const Cell& c = info.param;
      std::string name = net::to_string(c.topo) + (c.auth ? "_auth_" : "_unauth_") + "k" +
                         std::to_string(c.k) + "tl" + std::to_string(c.tl) + "tr" +
                         std::to_string(c.tr);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(Btm, HonestDecisionsAgreeOnOneMatching) {
  // All honest parties must hold the same matching internally.
  auto spec = make_spec(TopologyKind::FullyConnected, true, 4, 0, 1, 3);
  spec.adversaries.push_back({4, 0, std::make_unique<adversary::RandomNoise>(9, 2)});
  BsmConfig cfg = spec.config;
  net::Engine engine(net::Topology(cfg.topology, cfg.k), spec.pki_seed);
  const auto proto = *resolve_protocol(cfg);
  for (PartyId id = 0; id < cfg.n(); ++id) {
    engine.set_process(id, make_bsm_process(cfg, proto, id, spec.inputs.list(id)));
  }
  engine.set_corrupt(4, std::make_unique<adversary::RandomNoise>(9, 2));
  engine.run_guarded(proto.total_rounds + 2);
  const auto& reference = engine.process_as<BroadcastThenMatch>(0).matching();
  ASSERT_FALSE(reference.empty());
  for (PartyId id = 1; id < cfg.n(); ++id) {
    if (engine.is_corrupt(id)) continue;
    EXPECT_EQ(engine.process_as<BroadcastThenMatch>(id).matching(), reference);
  }
}

TEST(Btm, GarbageListFromByzantineFallsBackToDefaultConsistently) {
  auto spec = make_spec(TopologyKind::FullyConnected, true, 3, 1, 0, 21);
  spec.adversaries.push_back({1, 0, std::make_unique<adversary::RandomNoise>(4, 6, 200)});
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
  // Honest parties all decided; their joint matching is symmetric.
  for (PartyId id = 0; id < 6; ++id) {
    if (id == 1) continue;
    EXPECT_TRUE(out.decisions[id].has_value());
  }
}

TEST(Btm, RunnerRejectsUnsolvableWithoutForcedSpec) {
  auto spec = make_spec(TopologyKind::FullyConnected, false, 3, 1, 1, 2);
  EXPECT_THROW((void)run_bsm(std::move(spec)), std::logic_error);
}

TEST(Btm, TotalRoundsFormulasMatchConstructions) {
  const BsmConfig cfg{TopologyKind::FullyConnected, true, 4, 2, 1};
  // Dolev-Strong: t + 1 steps, stride 1, plus the decision round.
  EXPECT_EQ(BroadcastThenMatch::total_rounds(cfg, BbKind::DolevStrong, 1), (2U + 1U + 1U) * 1 + 1);
  // Product BB: 1 dissemination step + 3 (tL + tR + 1) agreement steps.
  EXPECT_EQ(BroadcastThenMatch::bb_duration(cfg, BbKind::ProductPhaseKing), 1 + 3 * 4);
}

}  // namespace
}  // namespace bsm::core

// End-to-end tests of Pi_bSM (Section 5.2): the bipartite authenticated
// protocol that survives a fully byzantine opposite side.
#include <gtest/gtest.h>

#include <set>

#include "adversary/shims.hpp"
#include "adversary/strategies.hpp"
#include "core/runner.hpp"
#include "matching/generators.hpp"

namespace bsm::core {
namespace {

using net::TopologyKind;

RunSpec pi_spec(std::uint32_t k, std::uint32_t tl, std::uint32_t tr, std::uint64_t seed,
                TopologyKind topo = TopologyKind::Bipartite) {
  RunSpec spec;
  spec.config = BsmConfig{topo, true, k, tl, tr};
  spec.inputs = matching::random_profile(k, seed);
  spec.pki_seed = seed + 100;
  return spec;
}

TEST(PiBsm, FactoryPicksPiBsmWhenOneSideFullyByzantine) {
  const auto spec = resolve_protocol(BsmConfig{TopologyKind::Bipartite, true, 4, 1, 4});
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->kind, ProtocolSpec::Kind::PiBsm);
  EXPECT_EQ(spec->algo_side, Side::Left);
  const auto mirrored = resolve_protocol(BsmConfig{TopologyKind::Bipartite, true, 4, 4, 1});
  ASSERT_TRUE(mirrored.has_value());
  EXPECT_EQ(mirrored->algo_side, Side::Right);
}

TEST(PiBsm, FaultFreeRunMatchesGaleShapley) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto spec = pi_spec(4, 1, 4, seed);
    const auto expected = matching::gale_shapley(spec.inputs).matching;
    const auto out = run_bsm(std::move(spec));
    EXPECT_TRUE(out.report.all()) << out.report.summary();
    for (PartyId id = 0; id < 8; ++id) {
      ASSERT_TRUE(out.decisions[id].has_value()) << "P" << id;
      EXPECT_EQ(*out.decisions[id], expected[id]) << "P" << id;
    }
  }
}

TEST(PiBsm, MirroredAlgoSideWorks) {
  auto spec = pi_spec(4, 4, 1, 11);
  const auto expected = matching::gale_shapley(spec.inputs).matching;
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
  EXPECT_EQ(out.spec.algo_side, Side::Right);
  for (PartyId id = 0; id < 8; ++id) EXPECT_EQ(out.decisions[id], expected[id]);
}

TEST(PiBsm, EntireOppositeSideSilent) {
  // tR = k, all R refuse to participate: every honest L party must still
  // terminate, with a consistent outcome (omissions make bottom/"nobody"
  // legitimate; non-competition must hold among those who do match).
  auto spec = pi_spec(4, 1, 4, 3);
  for (PartyId r = 4; r < 8; ++r) {
    spec.adversaries.push_back({r, 0, std::make_unique<adversary::Silent>()});
  }
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
}

TEST(PiBsm, EntireOppositeSideNoise) {
  auto spec = pi_spec(3, 0, 3, 4);
  for (PartyId r = 3; r < 6; ++r) {
    spec.adversaries.push_back({r, 0, std::make_unique<adversary::RandomNoise>(r, 5)});
  }
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
}

TEST(PiBsm, RelayDroppingCausesConsistentOmissionHandling) {
  // All R byzantine: they forward nothing (send filter drops relay
  // forwards), so every A-to-A virtual channel omits. All honest L must
  // agree: everyone sees bottom and matches nobody.
  auto spec = pi_spec(4, 1, 4, 5);
  for (PartyId r = 4; r < 8; ++r) {
    spec.adversaries.push_back(
        {r, 0,
         std::make_unique<adversary::SendFiltered>(
             honest_process_for(spec, r, spec.inputs.list(r)),
             [](PartyId, ByteView payload) {
               return payload.empty() || payload[0] != 2;  // drop RelayFwd frames
             })});
  }
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
  for (PartyId l = 0; l < 4; ++l) {
    ASSERT_TRUE(out.decisions[l].has_value());
    EXPECT_EQ(*out.decisions[l], kNobody) << "omissions everywhere -> match nobody";
  }
}

TEST(PiBsm, PartialRelayDroppingIsHarmless) {
  // One honest R party exists: omissions are impossible (Lemma 10), so the
  // run must complete with a full matching even if the other three R
  // parties drop everything.
  auto spec = pi_spec(4, 0, 4, 6);
  for (PartyId r = 5; r < 8; ++r) {
    spec.adversaries.push_back({r, 0, std::make_unique<adversary::Silent>()});
  }
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
  for (PartyId l = 0; l < 4; ++l) {
    ASSERT_TRUE(out.decisions[l].has_value());
    EXPECT_NE(*out.decisions[l], kNobody);
  }
  // The honest R party's decision reciprocates its match.
  ASSERT_TRUE(out.decisions[4].has_value());
  const PartyId partner = *out.decisions[4];
  ASSERT_LT(partner, 4U);
  EXPECT_EQ(*out.decisions[partner], 4U);
}

TEST(PiBsm, ByzantineAlgoSidePartyCannotBreakSuggestionMajority) {
  // tL = 1: one byzantine L party lies to R about the matching; the honest
  // majority of suggestions must prevail.
  auto spec = pi_spec(4, 1, 4, 7);
  const auto lie = matching::contested_profile(4);
  spec.adversaries.push_back({0, 0, honest_process_for(spec, 0, lie.list(0))});
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
  // All honest parties decided on a real partner (R side had full honesty).
  for (PartyId id = 1; id < 8; ++id) {
    ASSERT_TRUE(out.decisions[id].has_value());
    EXPECT_NE(*out.decisions[id], kNobody);
  }
}

TEST(PiBsm, WorksOnOneSidedTopologyToo) {
  // Theorem 7's tR = k case runs Pi_bSM on the one-sided network.
  auto spec = pi_spec(3, 0, 3, 8, TopologyKind::OneSided);
  for (PartyId r = 3; r < 6; ++r) {
    spec.adversaries.push_back({r, 0, std::make_unique<adversary::Silent>()});
  }
  const auto out = run_bsm(std::move(spec));
  EXPECT_EQ(out.spec.kind, ProtocolSpec::Kind::PiBsm);
  EXPECT_TRUE(out.report.all()) << out.report.summary();
}

TEST(PiBsm, SplitBrainOppositeSideKeepsWeakAgreement) {
  // The fully byzantine R side partitions L into two worlds; Pi_bSM's
  // omission tolerance must keep every property (non-bottom deciders agree,
  // others match nobody).
  auto spec = pi_spec(3, 0, 3, 9);
  const auto group = [](PartyId p) { return p == 2 ? 1 : 0; };
  const std::set<PartyId> conspirators{3, 4, 5};
  for (PartyId r = 3; r < 6; ++r) {
    auto c = conspirators;
    c.erase(r);
    spec.adversaries.push_back(
        {r, 0,
         std::make_unique<adversary::SplitBrain>(
             honest_process_for(spec, r, spec.inputs.list(r)),
             honest_process_for(spec, r, matching::default_preference_list(Side::Right, 3)),
             group, c)});
  }
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
}

TEST(PiBsm, ScheduleFormulas) {
  const auto s = PiBsmSchedule::compute(1);
  EXPECT_EQ(s.ba_steps, 7U);                     // 3 (t+1) + 1
  EXPECT_EQ(s.bb_steps, 8U);                     // 1 + Delta_BA
  EXPECT_EQ(s.algo_decision, 16U);               // max(2*8, 1 + 2*7)
  EXPECT_EQ(s.other_decision, 17U);
  EXPECT_EQ(s.total_rounds, 18U);
  EXPECT_EQ(PiBsmSchedule::compute(0).algo_decision, 10U);
}

}  // namespace
}  // namespace bsm::core

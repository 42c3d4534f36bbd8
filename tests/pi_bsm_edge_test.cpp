// Edge cases of Pi_bSM: malformed B lists defaulting deterministically,
// control-channel constants, hostile suggestions, adaptive corruption of
// the opposite side, and the exact timing of the two decision rounds.
#include <gtest/gtest.h>

#include "adversary/strategies.hpp"
#include "core/pi_bsm.hpp"
#include "core/runner.hpp"
#include "matching/generators.hpp"

namespace bsm::core {
namespace {

using net::TopologyKind;

TEST(PiBsmEdge, ControlChannelsLiveOutsideInstanceIds) {
  EXPECT_EQ(pi_bsm_list_channel(4), 8U);
  EXPECT_EQ(pi_bsm_suggest_channel(4), 9U);
}

TEST(PiBsmEdge, GarbledBListFallsBackToTheSharedDefault) {
  // Byzantine R party 4 sprays garbage (its "list" never parses): every
  // honest A party must substitute the same default list, so the outcome
  // equals offline Gale-Shapley on the default-substituted profile.
  const std::uint32_t k = 4;
  RunSpec spec;
  spec.config = BsmConfig{TopologyKind::Bipartite, true, k, 1, k};
  spec.inputs = matching::random_profile(k, 6);
  spec.adversaries.push_back({4, 0, std::make_unique<adversary::RandomNoise>(8, 6, 64)});

  matching::PreferenceProfile substituted = spec.inputs;
  substituted.set(4, matching::default_preference_list(Side::Right, k));
  const auto expected = matching::gale_shapley(substituted).matching;

  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
  for (PartyId id = 0; id < 2 * k; ++id) {
    if (out.corrupt[id]) continue;
    EXPECT_EQ(out.decisions[id], std::optional<PartyId>{expected[id]}) << "P" << id;
  }
}

TEST(PiBsmEdge, SilentBPartyGetsDefaultButStillGetsMatched) {
  // A silent byzantine R party is assigned the default list; the matching
  // is still perfect and the silent party's "slot" is filled consistently.
  const std::uint32_t k = 3;
  RunSpec spec;
  spec.config = BsmConfig{TopologyKind::Bipartite, true, k, 0, k};
  spec.inputs = matching::random_profile(k, 2);
  spec.adversaries.push_back({5, 0, std::make_unique<adversary::Silent>()});

  matching::PreferenceProfile substituted = spec.inputs;
  substituted.set(5, matching::default_preference_list(Side::Right, k));
  const auto expected = matching::gale_shapley(substituted).matching;

  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all());
  for (PartyId l = 0; l < k; ++l) {
    EXPECT_EQ(out.decisions[l], std::optional<PartyId>{expected[l]});
  }
}

TEST(PiBsmEdge, AdaptiveCorruptionOfBMidProtocol) {
  // R parties fall to the adversary one by one while the protocol runs;
  // the run stays within budget (tR = k) and properties must hold.
  const std::uint32_t k = 3;
  RunSpec spec;
  spec.config = BsmConfig{TopologyKind::Bipartite, true, k, 0, k};
  spec.inputs = matching::random_profile(k, 4);
  spec.adversaries.push_back({3, 2, std::make_unique<adversary::Silent>()});
  spec.adversaries.push_back({4, 4, std::make_unique<adversary::Silent>()});
  spec.adversaries.push_back({5, 6, std::make_unique<adversary::Silent>()});
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
}

TEST(PiBsmEdge, HostileSuggestionsWithWrongSideAreIgnored) {
  // A byzantine A party suggests a *right-side* id as a partner; B must
  // discard implausible suggestions entirely.
  const std::uint32_t k = 4;
  const BsmConfig cfg{TopologyKind::Bipartite, true, k, 1, k};
  const auto proto = *resolve_protocol(cfg);
  const auto inputs = matching::random_profile(k, 8);

  class NonsenseSuggester final : public net::Process {
   public:
    explicit NonsenseSuggester(std::uint32_t k) : k_(k) {}
    void on_round(net::Context& ctx, net::Inbox) override {
      if (ctx.round() != 0) return;
      for (PartyId b = k_; b < 2 * k_; ++b) {
        Writer inner;
        inner.u32(b);  // "match yourself" — wrong side
        Writer frame;
        frame.u32(pi_bsm_suggest_channel(k_));
        frame.bytes(inner.data());
        Writer direct;
        direct.u8(0);
        direct.bytes(frame.data());
        ctx.send(b, direct.data());
      }
    }
    std::uint32_t k_;
  };

  RunSpec spec;
  spec.config = cfg;
  spec.inputs = inputs;
  spec.adversaries.push_back({0, 0, std::make_unique<NonsenseSuggester>(k)});
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
  for (PartyId b = k; b < 2 * k; ++b) {
    ASSERT_TRUE(out.decisions[b].has_value());
    if (*out.decisions[b] != kNobody) {
      EXPECT_EQ(side_of(*out.decisions[b], k), Side::Left);
    }
  }
}

TEST(PiBsmEdge, BSideDecidesExactlyOneRoundAfterASide) {
  const std::uint32_t k = 3;
  const BsmConfig cfg{TopologyKind::Bipartite, true, k, 0, k};
  const auto proto = *resolve_protocol(cfg);
  const auto sched = PiBsmSchedule::compute(0);
  ASSERT_EQ(proto.total_rounds, sched.total_rounds);

  net::Engine engine(net::Topology(cfg.topology, k), 1);
  const auto inputs = matching::random_profile(k, 3);
  for (PartyId id = 0; id < 2 * k; ++id) {
    engine.set_process(id, make_bsm_process(cfg, proto, id, inputs.list(id)));
  }
  engine.run_guarded(sched.algo_decision + 1);  // rounds 0 .. algo_decision
  for (PartyId a = 0; a < k; ++a) {
    EXPECT_TRUE(engine.process_as<BsmProcess>(a).decided()) << "A decides at algo_decision";
  }
  for (PartyId b = k; b < 2 * k; ++b) {
    EXPECT_FALSE(engine.process_as<BsmProcess>(b).decided()) << "B waits one more Delta";
  }
  engine.run_guarded(1);
  for (PartyId b = k; b < 2 * k; ++b) {
    EXPECT_TRUE(engine.process_as<BsmProcess>(b).decided());
  }
}

TEST(PiBsmEdge, MirroredScheduleUsesRightSideBudget) {
  const BsmConfig cfg{TopologyKind::Bipartite, true, 7, 7, 2};
  const auto proto = *resolve_protocol(cfg);
  ASSERT_EQ(proto.kind, ProtocolSpec::Kind::PiBsm);
  EXPECT_EQ(proto.algo_side, Side::Right);
  EXPECT_EQ(proto.total_rounds, PiBsmSchedule::compute(cfg.tr).total_rounds);
}

}  // namespace
}  // namespace bsm::core

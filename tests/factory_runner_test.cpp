// Tests of the protocol factory and the run driver: spec consistency with
// the topology, budget validation, forced specs, slack handling.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "adversary/strategies.hpp"
#include "core/oracle.hpp"
#include "core/runner.hpp"
#include "matching/generators.hpp"

namespace bsm::core {
namespace {

using net::TopologyKind;

TEST(Factory, SpecsAreConsistentWithTopology) {
  for (auto topo : {TopologyKind::FullyConnected, TopologyKind::OneSided, TopologyKind::Bipartite}) {
    for (bool auth : {false, true}) {
      for (std::uint32_t k = 2; k <= 5; ++k) {
        for (std::uint32_t tl = 0; tl <= k; ++tl) {
          for (std::uint32_t tr = 0; tr <= k; ++tr) {
            const BsmConfig cfg{topo, auth, k, tl, tr};
            const auto spec = resolve_protocol(cfg);
            if (!spec.has_value()) continue;
            // A fully-connected network never needs relays; the other
            // topologies never run at stride 1.
            if (topo == TopologyKind::FullyConnected) {
              EXPECT_EQ(spec->relay, net::RelayMode::Direct) << cfg.describe();
              EXPECT_EQ(spec->stride, 1U) << cfg.describe();
            } else {
              EXPECT_NE(spec->relay, net::RelayMode::Direct) << cfg.describe();
              EXPECT_EQ(spec->stride, 2U) << cfg.describe();
            }
            // Unauthenticated settings must not use signed relays.
            if (!auth) {
              EXPECT_TRUE(spec->relay == net::RelayMode::Direct ||
                          spec->relay == net::RelayMode::UnauthMajority)
                  << cfg.describe();
              EXPECT_EQ(spec->kind, ProtocolSpec::Kind::BtmProduct) << cfg.describe();
            }
            // Pi_bSM appears exactly when one side may be fully byzantine.
            if (spec->kind == ProtocolSpec::Kind::PiBsm) {
              EXPECT_TRUE(tl == k || tr == k) << cfg.describe();
              const std::uint32_t ta = spec->algo_side == Side::Left ? tl : tr;
              EXPECT_LT(3 * ta, k) << cfg.describe();
            }
            EXPECT_GT(spec->total_rounds, 0U) << cfg.describe();
            EXPECT_FALSE(spec->describe().empty());
          }
        }
      }
    }
  }
}

TEST(Factory, MakeProcessDispatchesBySide) {
  const BsmConfig cfg{TopologyKind::Bipartite, true, 3, 0, 3};
  const auto spec = *resolve_protocol(cfg);
  ASSERT_EQ(spec.kind, ProtocolSpec::Kind::PiBsm);
  const auto inputs = matching::random_profile(3, 1);
  for (PartyId id = 0; id < 6; ++id) {
    EXPECT_NE(make_bsm_process(cfg, spec, id, inputs.list(id)), nullptr);
  }
}

TEST(Factory, ProcessRejectsInvalidInput) {
  const BsmConfig cfg{TopologyKind::FullyConnected, true, 3, 1, 1};
  const auto spec = *resolve_protocol(cfg);
  EXPECT_THROW((void)make_bsm_process(cfg, spec, 0, matching::PreferenceList{0, 1, 2}),
               std::logic_error);  // own-side list
  EXPECT_THROW((void)make_bsm_process(cfg, spec, 0, matching::PreferenceList{3, 4}),
               std::logic_error);  // too short
}

TEST(Runner, RejectsOutOfRangeAdversaryIds) {
  RunSpec spec;
  spec.config = BsmConfig{TopologyKind::FullyConnected, true, 2, 1, 1};
  spec.inputs = matching::random_profile(2, 1);
  spec.adversaries.push_back({9, 0, std::make_unique<adversary::Silent>()});
  EXPECT_THROW((void)run_bsm(std::move(spec)), std::logic_error);
}

TEST(Runner, RejectsMissingStrategy) {
  RunSpec spec;
  spec.config = BsmConfig{TopologyKind::FullyConnected, true, 2, 1, 1};
  spec.inputs = matching::random_profile(2, 1);
  spec.adversaries.push_back({0, 0, nullptr});
  EXPECT_THROW((void)run_bsm(std::move(spec)), std::logic_error);
}

TEST(Runner, RejectsMismatchedInputSize) {
  RunSpec spec;
  spec.config = BsmConfig{TopologyKind::FullyConnected, true, 3, 0, 0};
  spec.inputs = matching::random_profile(2, 1);  // wrong k
  EXPECT_THROW((void)run_bsm(std::move(spec)), std::logic_error);

  // A market above core::kMaxK is refused, with inputs of its own size,
  // by a message that names the cap.
  RunSpec big;
  big.config = BsmConfig{TopologyKind::FullyConnected, true, kMaxK + 1, 0, 0};
  big.inputs = matching::random_profile(kMaxK + 1, 1);
  try {
    (void)run_bsm(std::move(big));
    ADD_FAILURE() << "run_bsm ran a k = 65 market";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("core::kMaxK = 64"), std::string::npos) << e.what();
  }
}

TEST(Runner, ForcedSpecOverridesSolvability) {
  // Unsolvable cell + forced spec: the runner executes and reports honest
  // violations instead of refusing (the attack-experiment path).
  const BsmConfig cfg{TopologyKind::FullyConnected, false, 3, 1, 1};
  ASSERT_FALSE(solvable(cfg));
  ProtocolSpec forced;
  forced.kind = ProtocolSpec::Kind::BtmProduct;
  forced.relay = net::RelayMode::Direct;
  forced.stride = 1;
  forced.total_rounds = BroadcastThenMatch::total_rounds(cfg, BbKind::ProductPhaseKing, 1);
  RunSpec spec;
  spec.config = cfg;
  spec.inputs = matching::random_profile(3, 1);
  spec.forced_spec = forced;
  // No adversary: even out of region the fault-free run is clean.
  const auto out = run_bsm(std::move(spec));
  EXPECT_TRUE(out.report.all()) << out.report.summary();
}

TEST(Runner, ExtraRoundsDoNotChangeDecisions) {
  auto make = [](Round extra) {
    RunSpec spec;
    spec.config = BsmConfig{TopologyKind::FullyConnected, true, 3, 1, 1};
    spec.inputs = matching::random_profile(3, 4);
    spec.extra_rounds = extra;
    return run_bsm(std::move(spec));
  };
  const auto short_run = make(0);
  const auto long_run = make(10);
  EXPECT_EQ(short_run.decisions, long_run.decisions);
  EXPECT_TRUE(short_run.report.all());
}

TEST(Runner, HonestProcessForMatchesFactoryChoice) {
  RunSpec spec;
  spec.config = BsmConfig{TopologyKind::OneSided, true, 3, 1, 1};
  spec.inputs = matching::random_profile(3, 2);
  auto process = honest_process_for(spec, 0, spec.inputs.list(0));
  EXPECT_NE(dynamic_cast<BroadcastThenMatch*>(process.get()), nullptr);
}

TEST(Runner, ReportsTrafficAndViews) {
  RunSpec spec;
  spec.config = BsmConfig{TopologyKind::FullyConnected, true, 2, 0, 0};
  spec.inputs = matching::random_profile(2, 3);
  const auto out = run_bsm(std::move(spec));
  EXPECT_GT(out.traffic.messages, 0U);
  EXPECT_GT(out.traffic.bytes, 0U);
  EXPECT_EQ(out.view_hashes.size(), 4U);
  EXPECT_EQ(out.corrupt, std::vector<bool>(4, false));
}

}  // namespace
}  // namespace bsm::core

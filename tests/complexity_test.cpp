// Closed-form running times: every construction must decide exactly on the
// round its public schedule promises, across a parameter sweep — the
// synchronous model's "publicly known termination time" made executable.
#include <gtest/gtest.h>

#include "core/oracle.hpp"
#include "core/runner.hpp"
#include "matching/generators.hpp"

namespace bsm::core {
namespace {

using net::TopologyKind;

struct SweepCell {
  TopologyKind topo;
  bool auth;
  std::uint32_t k, tl, tr;
};

class ScheduleSweep : public ::testing::TestWithParam<SweepCell> {};

TEST_P(ScheduleSweep, DecisionLandsExactlyOnSchedule) {
  const SweepCell c = GetParam();
  const BsmConfig cfg{c.topo, c.auth, c.k, c.tl, c.tr};
  ASSERT_TRUE(solvable(cfg));
  const auto proto = *resolve_protocol(cfg);

  // Run with zero slack: every honest party must have decided by
  // total_rounds, and not before total_rounds - 1 (tight schedule).
  net::Engine engine(net::Topology(cfg.topology, cfg.k), 3);
  const auto inputs = matching::random_profile(cfg.k, 17);
  for (PartyId id = 0; id < cfg.n(); ++id) {
    engine.set_process(id, make_bsm_process(cfg, proto, id, inputs.list(id)));
  }
  require(proto.total_rounds >= 2, "schedule too short to probe");
  engine.run_guarded(proto.total_rounds - 1);
  bool any_undecided = false;
  for (PartyId id = 0; id < cfg.n(); ++id) {
    any_undecided |= !engine.process_as<BsmProcess>(id).decided();
  }
  EXPECT_TRUE(any_undecided) << "schedule is loose: everyone decided a round early ("
                             << proto.describe() << ")";
  engine.run_guarded(1);
  for (PartyId id = 0; id < cfg.n(); ++id) {
    EXPECT_TRUE(engine.process_as<BsmProcess>(id).decided())
        << "P" << id << " missed the schedule (" << proto.describe() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, ScheduleSweep,
    ::testing::Values(SweepCell{TopologyKind::FullyConnected, true, 3, 0, 0},
                      SweepCell{TopologyKind::FullyConnected, true, 3, 1, 2},
                      SweepCell{TopologyKind::FullyConnected, true, 4, 4, 4},
                      SweepCell{TopologyKind::FullyConnected, false, 3, 0, 1},
                      SweepCell{TopologyKind::FullyConnected, false, 4, 1, 2},
                      SweepCell{TopologyKind::OneSided, true, 3, 1, 2},
                      SweepCell{TopologyKind::OneSided, true, 3, 0, 3},
                      SweepCell{TopologyKind::OneSided, false, 3, 0, 1},
                      SweepCell{TopologyKind::Bipartite, true, 3, 2, 2},
                      SweepCell{TopologyKind::Bipartite, true, 3, 0, 3},
                      SweepCell{TopologyKind::Bipartite, false, 4, 1, 1}),
    [](const ::testing::TestParamInfo<SweepCell>& info) {
      const auto& c = info.param;
      std::string name = net::to_string(c.topo);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + (c.auth ? "_auth_" : "_unauth_") + "k" + std::to_string(c.k) + "tl" +
             std::to_string(c.tl) + "tr" + std::to_string(c.tr);
    });

TEST(ClosedForms, RoundFormulasPerConstruction) {
  // Dolev-Strong broadcast-then-match: (t+1) steps * stride + 1.
  {
    const BsmConfig cfg{TopologyKind::FullyConnected, true, 4, 2, 3};
    EXPECT_EQ(resolve_protocol(cfg)->total_rounds, (2 + 3 + 1) * 1U + 1U);
  }
  {
    const BsmConfig cfg{TopologyKind::OneSided, true, 4, 2, 3};  // signed relay: stride 2
    EXPECT_EQ(resolve_protocol(cfg)->total_rounds, (2 + 3 + 1) * 2U + 1U);
  }
  // Product phase-king: (1 + 3 (tl + tr + 1)) steps * stride + 1.
  {
    const BsmConfig cfg{TopologyKind::FullyConnected, false, 4, 1, 2};
    EXPECT_EQ(resolve_protocol(cfg)->total_rounds, (1 + 3 * 4) * 1U + 1U);
  }
  {
    const BsmConfig cfg{TopologyKind::Bipartite, false, 4, 1, 1};
    EXPECT_EQ(resolve_protocol(cfg)->total_rounds, (1 + 3 * 3) * 2U + 1U);
  }
  // Pi_bSM: max(2 (3 tA + 5), 1 + 2 (3 tA + 4)) + 2 = 6 tA + 12.
  {
    const BsmConfig cfg{TopologyKind::Bipartite, true, 4, 1, 4};
    EXPECT_EQ(resolve_protocol(cfg)->total_rounds, 6U * 1 + 12);
  }
  {
    const BsmConfig cfg{TopologyKind::OneSided, true, 3, 0, 3};
    EXPECT_EQ(resolve_protocol(cfg)->total_rounds, 12U);
  }
}

TEST(ClosedForms, RoundsDependOnBudgetsNotOnK) {
  // The paper's protocols run in time governed by the corruption budget;
  // growing k alone must not change the schedule.
  const auto rounds = [](std::uint32_t k) {
    return resolve_protocol(BsmConfig{TopologyKind::FullyConnected, true, k, 2, 2})->total_rounds;
  };
  EXPECT_EQ(rounds(3), rounds(6));
  EXPECT_EQ(rounds(3), rounds(9));

  const auto pi_rounds = [](std::uint32_t k) {
    return resolve_protocol(BsmConfig{TopologyKind::Bipartite, true, k, 1, k})->total_rounds;
  };
  EXPECT_EQ(pi_rounds(4), pi_rounds(7));
}

TEST(ClosedForms, MessageCountScalesCubicallyInK) {
  // Broadcast-everything constructions run 2k broadcast instances, each
  // costing Theta(k^2) messages: total Theta(k^3). Doubling k should
  // multiply traffic by ~8.
  auto messages = [](std::uint32_t k) {
    RunSpec spec;
    spec.config = BsmConfig{TopologyKind::FullyConnected, true, k, 1, 1};
    spec.inputs = matching::random_profile(k, 2);
    return run_bsm(std::move(spec)).traffic.messages;
  };
  const auto m3 = messages(3);
  const auto m6 = messages(6);
  EXPECT_GE(m6, 6 * m3);
  EXPECT_LE(m6, 10 * m3);
}

}  // namespace
}  // namespace bsm::core

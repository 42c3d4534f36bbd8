// Integration sweep: for every cell of (topology x auth x tL x tR) at small
// k, a solvable cell must survive an adversary battery with all four bSM
// properties intact — the test-suite version of the paper's results grid
// (the full grid is the `solvability_grid/` bench group).
//
// Cells are enumerated declaratively with SweepGrid and executed through
// run_sweep(), the same engine the benches use.
#include <gtest/gtest.h>

#include "adversary/strategies.hpp"
#include "core/oracle.hpp"
#include "core/runner.hpp"
#include "core/ssm.hpp"
#include "core/sweep.hpp"
#include "matching/generators.hpp"

namespace bsm::core {
namespace {

using net::TopologyKind;

struct GridParam {
  TopologyKind topo;
  bool auth;
  Battery battery;
};

class SolvabilityGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(SolvabilityGrid, EverySolvableCellHoldsAllProperties) {
  const auto [topo, auth, battery] = GetParam();
  SweepGrid grid;
  grid.topologies = {topo};
  grid.auths = {auth};
  grid.ks = {2, 3};
  grid.seeds = {1};
  grid.batteries = {battery};
  const auto results = run_sweep(grid.cells());
  ASSERT_FALSE(results.empty());
  for (const auto& cell : results) {
    if (!cell.solvable) {
      EXPECT_FALSE(cell.outcome.has_value());
      continue;
    }
    EXPECT_TRUE(cell.ok()) << cell.scenario.config.describe()
                           << " battery=" << static_cast<int>(battery) << " -> "
                           << cell.outcome->report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSettings, SolvabilityGrid,
    ::testing::Values(GridParam{TopologyKind::FullyConnected, false, Battery::Silent},
                      GridParam{TopologyKind::FullyConnected, false, Battery::Noise},
                      GridParam{TopologyKind::FullyConnected, false, Battery::Liars},
                      GridParam{TopologyKind::FullyConnected, true, Battery::Silent},
                      GridParam{TopologyKind::FullyConnected, true, Battery::Noise},
                      GridParam{TopologyKind::FullyConnected, true, Battery::Liars},
                      GridParam{TopologyKind::OneSided, false, Battery::Silent},
                      GridParam{TopologyKind::OneSided, false, Battery::Noise},
                      GridParam{TopologyKind::OneSided, false, Battery::Liars},
                      GridParam{TopologyKind::OneSided, true, Battery::Silent},
                      GridParam{TopologyKind::OneSided, true, Battery::Noise},
                      GridParam{TopologyKind::OneSided, true, Battery::Liars},
                      GridParam{TopologyKind::Bipartite, false, Battery::Silent},
                      GridParam{TopologyKind::Bipartite, false, Battery::Noise},
                      GridParam{TopologyKind::Bipartite, false, Battery::Liars},
                      GridParam{TopologyKind::Bipartite, true, Battery::Silent},
                      GridParam{TopologyKind::Bipartite, true, Battery::Noise},
                      GridParam{TopologyKind::Bipartite, true, Battery::Liars}),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      const auto& p = info.param;
      std::string name = net::to_string(p.topo);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      name += p.auth ? "_auth" : "_unauth";
      switch (p.battery) {
        case Battery::Silent: name += "_silent"; break;
        case Battery::Noise: name += "_noise"; break;
        case Battery::Liars: name += "_liars"; break;
        case Battery::AdaptiveCrash: name += "_adaptive"; break;
      }
      return name;
    });

TEST(Grid, SsmViaBsmReductionHoldsEverywhere) {
  // Lemma 2 in action: run the bSM protocol on favorite-expanded inputs and
  // check the *simplified* properties on the outcome.
  for (auto topo : {TopologyKind::FullyConnected, TopologyKind::OneSided}) {
    const std::uint32_t k = 3;
    const BsmConfig cfg{topo, true, k, 1, 1};
    ASSERT_TRUE(solvable(cfg));
    const std::vector<PartyId> favorites{4, 3, 5, 1, 0, 2};
    RunSpec spec;
    spec.config = cfg;
    spec.inputs = profile_from_favorites(favorites, k);
    spec.adversaries.push_back({1, 0, std::make_unique<adversary::Silent>()});
    spec.adversaries.push_back({5, 0, std::make_unique<adversary::Silent>()});
    const auto out = run_bsm(std::move(spec));
    const auto rep = check_ssm(k, out.corrupt, favorites, out.decisions);
    EXPECT_TRUE(rep.all()) << net::to_string(topo) << ": " << rep.summary();
  }
}

}  // namespace
}  // namespace bsm::core

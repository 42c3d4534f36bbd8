// sSM through the Lemma 2 reduction, swept across the solvable grid: the
// simplified properties must hold in every solvable cell with mutual
// favorites under byzantine pressure (this is exactly the problem class
// the paper's impossibility proofs target).
#include <gtest/gtest.h>

#include "adversary/strategies.hpp"
#include "core/oracle.hpp"
#include "core/ssm.hpp"
#include "matching/generators.hpp"
#include "net/engine.hpp"

namespace bsm::core {
namespace {

using net::TopologyKind;

/// Favorites with all pairs mutual: i on the left <-> k + (i rotated).
[[nodiscard]] std::vector<PartyId> mutual_favorites(std::uint32_t k, std::uint32_t rotate) {
  std::vector<PartyId> favorites(2 * k);
  for (std::uint32_t i = 0; i < k; ++i) {
    const PartyId left = i;
    const PartyId right = k + (i + rotate) % k;
    favorites[left] = right;
    favorites[right] = left;
  }
  return favorites;
}

class SsmGrid : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(SsmGrid, SolvableCellsKeepSimplifiedProperties) {
  const TopologyKind topo = GetParam();
  for (const bool auth : {false, true}) {
    for (const std::uint32_t k : {2U, 3U}) {
      for (std::uint32_t tl = 0; tl <= k; ++tl) {
        for (std::uint32_t tr = 0; tr <= k; ++tr) {
          const BsmConfig cfg{topo, auth, k, tl, tr};
          if (!solvable(cfg)) continue;
          SsmRunSpec spec;
          spec.config = cfg;
          spec.favorites = mutual_favorites(k, (tl + tr) % k);
          for (std::uint32_t i = 0; i < tl; ++i) {
            spec.adversaries.push_back({i, 0, std::make_unique<adversary::Silent>()});
          }
          for (std::uint32_t i = 0; i < tr; ++i) {
            spec.adversaries.push_back(
                {k + i, 0, std::make_unique<adversary::RandomNoise>(i + 3, 2)});
          }
          const auto out = run_ssm(std::move(spec));
          EXPECT_TRUE(out.report.all()) << cfg.describe() << " -> " << out.report.summary();
          // Untouched mutual pairs must actually be matched (not just
          // vacuously unconstrained): check the honest-honest pairs.
          const auto favorites = mutual_favorites(k, (tl + tr) % k);
          for (PartyId l = tl; l < k; ++l) {
            const PartyId r = favorites[l];
            if (r < k + tr) continue;  // partner corrupted
            EXPECT_EQ(out.decisions[l], std::optional<PartyId>{r}) << cfg.describe();
            EXPECT_EQ(out.decisions[r], std::optional<PartyId>{l}) << cfg.describe();
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, SsmGrid,
                         ::testing::Values(TopologyKind::FullyConnected, TopologyKind::OneSided,
                                           TopologyKind::Bipartite),
                         [](const ::testing::TestParamInfo<TopologyKind>& info) {
                           std::string name = net::to_string(info.param);
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(SsmGrid, EngineObserverSeesEveryDeliveredMessage) {
  // The observer wiretap undercounts nothing: its count equals the
  // engine's own delivered-message statistics.
  net::Engine engine(net::Topology(TopologyKind::FullyConnected, 2), 1);
  std::uint64_t observed = 0;
  engine.set_observer([&](const net::Envelope&) { ++observed; });
  class Chatty final : public net::Process {
   public:
    void on_round(net::Context& ctx, net::Inbox) override {
      for (PartyId p = 0; p < 4; ++p) ctx.send(p, Bytes{1});
    }
  };
  for (PartyId id = 0; id < 4; ++id) engine.set_process(id, std::make_unique<Chatty>());
  engine.run_guarded(5);
  // Messages sent in rounds 0..3 get delivered by round 4; round 4's sends
  // are still in flight.
  EXPECT_EQ(observed, 4U * 4U * 4U);
  EXPECT_EQ(engine.stats().messages, 4U * 4U * 5U);
}

}  // namespace
}  // namespace bsm::core

// Tests for the executable Lemma 3 reduction: partition arithmetic, list
// expansion, and full runs where 2d simulators carry a 2K-party protocol
// and inherit its guarantees at the reduced thresholds.
#include <gtest/gtest.h>

#include "adversary/strategies.hpp"
#include "core/lemma3.hpp"
#include "core/oracle.hpp"
#include "core/properties.hpp"
#include "core/ssm.hpp"
#include "matching/generators.hpp"
#include "net/engine.hpp"

namespace bsm::core {
namespace {

TEST(Lemma3Partition, OwnersCoverEachSideInBalancedGroups) {
  for (const std::uint32_t big_k : {4U, 5U, 7U, 9U}) {
    for (std::uint32_t d = 1; d <= big_k; ++d) {
      const std::uint32_t cap = (big_k + d - 1) / d;  // ceil(K/d)
      std::vector<std::uint32_t> group_size(2 * d, 0);
      for (PartyId big = 0; big < 2 * big_k; ++big) {
        const PartyId owner = lemma3_owner(big_k, d, big);
        ASSERT_LT(owner, 2 * d);
        EXPECT_EQ(side_of(owner, d), side_of(big, big_k));
        ++group_size[owner];
      }
      for (const auto size : group_size) {
        EXPECT_GE(size, 1U);
        EXPECT_LE(size, cap);
      }
    }
  }
}

TEST(Lemma3Partition, RepresentativesBelongToTheirOwners) {
  for (const std::uint32_t big_k : {4U, 6U, 9U}) {
    for (std::uint32_t d = 1; d <= big_k; ++d) {
      for (PartyId small = 0; small < 2 * d; ++small) {
        const PartyId rep = lemma3_representative(big_k, d, small);
        EXPECT_EQ(lemma3_owner(big_k, d, rep), small);
        EXPECT_EQ(side_of(rep, big_k), side_of(small, d));
      }
    }
  }
}

TEST(Lemma3Partition, IdentityWhenDEqualsK) {
  for (PartyId id = 0; id < 8; ++id) {
    EXPECT_EQ(lemma3_owner(4, 4, id), id);
    EXPECT_EQ(lemma3_representative(4, 4, id), id);
  }
}

TEST(Lemma3Expansion, RepresentativesFirstThenFillers) {
  // K = 4, d = 2: small left party 0 ranks small right {3, 2} -> reps of
  // groups 1 and 0 on the big right side, then the non-representatives.
  const auto big = lemma3_expand_list({3, 2}, 0, 4, 2);
  ASSERT_EQ(big.size(), 4U);
  EXPECT_EQ(big[0], lemma3_representative(4, 2, 3));
  EXPECT_EQ(big[1], lemma3_representative(4, 2, 2));
  EXPECT_TRUE(matching::is_valid_preference_list(big, Side::Left, 4));
}

struct Lemma3Fixture {
  std::uint32_t big_k;
  std::uint32_t d;
  BsmConfig big;
  ProtocolSpec proto;

  Lemma3Fixture(std::uint32_t K, std::uint32_t d_, std::uint32_t tl, std::uint32_t tr)
      : big_k(K), d(d_), big{net::TopologyKind::FullyConnected, false, K, tl, tr} {
    proto = *resolve_protocol(big);
  }

  /// Run the simulated protocol on the 2d-party network and return the
  /// small-network decisions.
  std::vector<std::optional<PartyId>> run(const matching::PreferenceProfile& small_inputs,
                                          const std::vector<PartyId>& byzantine) {
    net::Engine engine(net::Topology(big.topology, d), 77);
    for (PartyId id = 0; id < 2 * d; ++id) {
      engine.set_process(id, std::make_unique<GroupSimulation>(big, proto, d, id,
                                                               small_inputs.list(id), 123));
    }
    for (PartyId id : byzantine) {
      engine.set_corrupt(id, std::make_unique<adversary::Silent>());
    }
    engine.run_guarded(proto.total_rounds + 2);
    std::vector<std::optional<PartyId>> decisions(2 * d);
    for (PartyId id = 0; id < 2 * d; ++id) {
      if (engine.is_corrupt(id)) continue;
      const auto& p = engine.process_as<BsmProcess>(id);
      if (p.decided()) decisions[id] = p.decision();
    }
    return decisions;
  }
};

TEST(Lemma3Simulation, FaultFreeRunSatisfiesBsmOnSmallMarket) {
  Lemma3Fixture fx(4, 2, 1, 0);  // big: K=4, tL=1 < K/3? 3 < 4 yes
  const auto inputs = matching::random_profile(2, 5);
  const auto decisions = fx.run(inputs, {});
  const auto report = check_bsm(2, std::vector<bool>(4, false), inputs, decisions);
  EXPECT_TRUE(report.all()) << report.summary();
  // Decisions must be real small-market matches in the fault-free case.
  for (PartyId id = 0; id < 4; ++id) {
    ASSERT_TRUE(decisions[id].has_value());
    EXPECT_NE(*decisions[id], kNobody);
  }
}

TEST(Lemma3Simulation, MutualFavoritesMatchThroughTheReduction) {
  Lemma3Fixture fx(4, 2, 1, 0);
  // Small favorites: 0 <-> 2 mutual (small right id 2), 1 <-> 3 mutual.
  const std::vector<PartyId> favorites{2, 3, 0, 1};
  const auto inputs = profile_from_favorites(favorites, 2);
  const auto decisions = fx.run(inputs, {});
  EXPECT_EQ(decisions[0], std::optional<PartyId>{2});
  EXPECT_EQ(decisions[2], std::optional<PartyId>{0});
  EXPECT_EQ(decisions[1], std::optional<PartyId>{3});
  EXPECT_EQ(decisions[3], std::optional<PartyId>{1});
}

TEST(Lemma3Simulation, ReducedThresholdByzantineToleranceHolds) {
  // Big protocol: K = 6, tL = 2 (< K/3), tR = 0. Reduction to d = 3:
  // tolerates floor(2 / ceil(6/3)) = 1 byzantine small-left party.
  Lemma3Fixture fx(6, 3, 2, 0);
  const auto [rtl, rtr] = reduced_thresholds(6, 3, 2, 0);
  ASSERT_EQ(rtl, 1U);
  ASSERT_EQ(rtr, 0U);
  const auto inputs = matching::random_profile(3, 9);
  const auto decisions = fx.run(inputs, {1});  // one byzantine simulator in L
  std::vector<bool> corrupt(6, false);
  corrupt[1] = true;
  // Lemma 3 transfers the *simplified* problem (that is how the paper uses
  // it): check the sSM properties against the small favorites.
  const auto favorites = matching::favorites_of(inputs);
  const auto report = check_ssm(3, corrupt, favorites, decisions);
  EXPECT_TRUE(report.all()) << report.summary();
}

TEST(Lemma3Simulation, SimulatorsAgreeOnWhoIsMatched) {
  Lemma3Fixture fx(4, 2, 0, 1);
  const auto inputs = matching::random_profile(2, 21);
  const auto decisions = fx.run(inputs, {2});  // byz right simulator
  std::vector<bool> corrupt(4, false);
  corrupt[2] = true;
  const auto report = check_ssm(2, corrupt, matching::favorites_of(inputs), decisions);
  EXPECT_TRUE(report.all()) << report.summary();
}

}  // namespace
}  // namespace bsm::core

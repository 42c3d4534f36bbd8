// Tests for the matching substrate: preference validation/codec, the
// O(1) rank index, Gale-Shapley correctness (against the brute-force
// oracle), stability analysis, the workload generators, and how the
// complete-list model treats incomplete ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "matching/gale_shapley.hpp"
#include "matching/generators.hpp"
#include "matching/preferences.hpp"
#include "matching/stability.hpp"

namespace bsm::matching {
namespace {

TEST(Preferences, ValidationAcceptsPermutations) {
  EXPECT_TRUE(is_valid_preference_list({3, 2}, Side::Left, 2));
  EXPECT_TRUE(is_valid_preference_list({1, 0}, Side::Right, 2));
}

TEST(Preferences, ValidationRejectsBadLists) {
  EXPECT_FALSE(is_valid_preference_list({2}, Side::Left, 2));        // too short
  EXPECT_FALSE(is_valid_preference_list({2, 2}, Side::Left, 2));     // duplicate
  EXPECT_FALSE(is_valid_preference_list({0, 1}, Side::Left, 2));     // own side
  EXPECT_FALSE(is_valid_preference_list({2, 4}, Side::Left, 2));     // out of range
  EXPECT_FALSE(is_valid_preference_list({2, 3, 3}, Side::Left, 2));  // too long
}

TEST(Preferences, DefaultListIsAscendingOpposite) {
  EXPECT_EQ(default_preference_list(Side::Left, 3), (PreferenceList{3, 4, 5}));
  EXPECT_EQ(default_preference_list(Side::Right, 3), (PreferenceList{0, 1, 2}));
}

TEST(Preferences, EncodeDecodeRoundTrip) {
  const PreferenceList list{4, 3, 5};
  const auto decoded = decode_preference_list(encode_preference_list(list), Side::Left, 3);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, list);
}

TEST(Preferences, DecodeRejectsGarbageAndTrailingBytes) {
  EXPECT_FALSE(decode_preference_list({1, 2, 3}, Side::Left, 3).has_value());
  Bytes encoded = encode_preference_list({3, 4, 5});
  encoded.push_back(0);  // trailing byte
  EXPECT_FALSE(decode_preference_list(encoded, Side::Left, 3).has_value());
  // Wrong side.
  EXPECT_FALSE(decode_preference_list(encode_preference_list({3, 4, 5}), Side::Right, 3));
}

TEST(Preferences, DecodeFuzzNeverThrows) {
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    EXPECT_NO_THROW(
        (void)decode_preference_list(rng.random_bytes(rng.below(40)), Side::Left, 3));
  }
}

TEST(Preferences, RankAndPrefers) {
  PreferenceProfile p(2);
  p.set(0, {3, 2});
  EXPECT_EQ(p.rank(0, 3), 0U);
  EXPECT_EQ(p.rank(0, 2), 1U);
  EXPECT_TRUE(p.prefers(0, 3, 2));
  EXPECT_FALSE(p.prefers(0, 2, 3));
}

TEST(MaterializedProfile, RankIndexInvalidatesOnSet) {
  // The O(1) inverse-rank index is built lazily and must be rebuilt after
  // set() replaces a list — a stale index would report the old order.
  PreferenceProfile p = random_profile(6, 21);
  const PartyId id = 2;
  EXPECT_EQ(p.rank(id, p.list(id)[0]), 0U);  // forces the index build
  PreferenceList reversed = p.list(id);
  std::reverse(reversed.begin(), reversed.end());
  p.set(id, reversed);
  for (std::uint32_t pos = 0; pos < 6; ++pos) {
    ASSERT_EQ(p.rank(id, reversed[pos]), pos);
  }
  // Same-side and unlisted candidates still throw (no silent aliasing
  // through the mod-k index).
  EXPECT_THROW((void)p.rank(0, 1), std::logic_error);
  EXPECT_THROW((void)p.rank(0, 100), std::logic_error);
}

TEST(MaterializedProfile, RankAgreesWithLinearScan) {
  const PreferenceProfile p = random_profile(17, 4);
  for (PartyId id = 0; id < p.n(); ++id) {
    const auto& list = p.list(id);
    for (std::uint32_t pos = 0; pos < p.k(); ++pos) {
      ASSERT_EQ(p.rank(id, list[pos]), pos);
    }
  }
}

TEST(GaleShapley, TextbookInstance) {
  // k = 3, hand-checked L-optimal outcome.
  PreferenceProfile p(3);
  p.set(0, {3, 4, 5});
  p.set(1, {3, 5, 4});
  p.set(2, {4, 3, 5});
  p.set(3, {1, 0, 2});
  p.set(4, {2, 0, 1});
  p.set(5, {0, 1, 2});
  const auto result = gale_shapley(p);
  EXPECT_EQ(result.matching[0], 5U);  // a0 displaced down to its third choice? (L-optimal check below)
  EXPECT_TRUE(is_stable(p, result.matching));
}

TEST(GaleShapley, MutualFavoritesAlwaysPaired) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    auto p = random_profile(4, seed);
    // Force 0 and 4 to be mutual favorites.
    PreferenceList l0 = p.list(0);
    std::iter_swap(std::find(l0.begin(), l0.end(), 4), l0.begin());
    p.set(0, l0);
    PreferenceList r0 = p.list(4);
    std::iter_swap(std::find(r0.begin(), r0.end(), 0), r0.begin());
    p.set(4, r0);
    const auto result = gale_shapley(p);
    EXPECT_EQ(result.matching[0], 4U) << "seed " << seed;
    EXPECT_EQ(result.matching[4], 0U) << "seed " << seed;
  }
}

TEST(GaleShapley, AlignedProfileUsesMinimumProposals) {
  const auto p = aligned_profile(5);
  const auto result = gale_shapley(p);
  EXPECT_EQ(result.proposals, 5U);  // everyone's first choice is distinct
  EXPECT_TRUE(is_stable(p, result.matching));
  // Every party, on both sides, gets its first choice.
  for (PartyId id = 0; id < p.n(); ++id) EXPECT_EQ(result.matching[id], p.list(id).front());
}

TEST(GaleShapley, ContestedProfileIsQuadratic) {
  const std::uint32_t k = 6;
  const auto result = gale_shapley(contested_profile(k));
  EXPECT_EQ(result.proposals, static_cast<std::uint64_t>(k) * (k + 1) / 2);
}

TEST(GaleShapley, ContestedProfileAssortative) {
  // Identical lists: right party r prefers l0 > l1 > ...; L-proposals make
  // the matching assortative by index.
  const auto p = contested_profile(4);
  const auto m = gale_shapley(p).matching;
  for (PartyId l = 0; l < 4; ++l) EXPECT_EQ(m[l], 4 + l);
}

class GaleShapleyRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GaleShapleyRandom, OutputIsPerfectAndStable) {
  for (std::uint32_t k : {1U, 2U, 3U, 5U, 8U}) {
    const auto p = random_profile(k, GetParam() * 131 + k);
    const auto result = gale_shapley(p);
    EXPECT_TRUE(is_perfect_matching(result.matching, k));
    EXPECT_TRUE(blocking_pairs(p, result.matching).empty());
    EXPECT_LE(result.proposals, static_cast<std::uint64_t>(k) * k);
    EXPECT_GE(result.proposals, k);
  }
}

TEST_P(GaleShapleyRandom, AgreesWithBruteForceOracle) {
  const std::uint32_t k = 4;
  const auto p = random_profile(k, GetParam() * 977 + 5);
  const auto all = all_stable_matchings(p);
  ASSERT_FALSE(all.empty());  // Gale-Shapley: a stable matching always exists
  const auto m = gale_shapley(p).matching;
  EXPECT_NE(std::find(all.begin(), all.end(), m), all.end());
}

TEST_P(GaleShapleyRandom, ResultIsLeftOptimal) {
  // Among all stable matchings, every left party weakly prefers the
  // Gale-Shapley partner (the classic L-optimality theorem).
  const std::uint32_t k = 4;
  const auto p = random_profile(k, GetParam() * 31 + 7);
  const auto m = gale_shapley(p).matching;
  for (const auto& other : all_stable_matchings(p)) {
    for (PartyId l = 0; l < k; ++l) {
      EXPECT_LE(p.rank(l, m[l]), p.rank(l, other[l]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaleShapleyRandom, ::testing::Range<std::uint64_t>(0, 20));

TEST(Stability, DetectsBlockingPair) {
  PreferenceProfile p(2);
  p.set(0, {2, 3});
  p.set(1, {2, 3});
  p.set(2, {0, 1});
  p.set(3, {0, 1});
  // Match 0-3 and 1-2: (0, 2) prefer each other.
  Matching m{3, 2, 1, 0};
  const auto blocking = blocking_pairs(p, m);
  ASSERT_EQ(blocking.size(), 1U);
  EXPECT_EQ(blocking[0], std::make_pair(PartyId{0}, PartyId{2}));
  EXPECT_FALSE(is_stable(p, m));
}

TEST(Stability, UnmatchedPartiesBlock) {
  PreferenceProfile p(1);
  p.set(0, {1});
  p.set(1, {0});
  Matching m{kNobody, kNobody};
  EXPECT_EQ(blocking_pairs(p, m).size(), 1U);
}

TEST(Stability, PerfectMatchingValidation) {
  EXPECT_TRUE(is_perfect_matching({2, 3, 0, 1}, 2));
  EXPECT_FALSE(is_perfect_matching({2, 3, 1, 0}, 2));   // asymmetric
  EXPECT_FALSE(is_perfect_matching({1, 0, 3, 2}, 2));   // same-side pairing
  EXPECT_FALSE(is_perfect_matching({2, 3, 0}, 2));      // wrong size
  EXPECT_FALSE(is_perfect_matching({kNobody, 3, 0, 1}, 2));
}

TEST(Generators, SimilarProfilesStayValid) {
  for (std::uint32_t swaps : {0U, 1U, 5U, 30U}) {
    const auto p = similar_profile(6, swaps, swaps + 1);
    EXPECT_TRUE(p.complete());
  }
}

TEST(Generators, FavoritesAreListHeads) {
  const auto p = random_profile(3, 5);
  const auto favorites = favorites_of(p);
  for (PartyId id = 0; id < 6; ++id) EXPECT_EQ(favorites[id], p.list(id).front());
}

TEST(Stability, AllStableMatchingsNonEmptyOnRandom) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    EXPECT_FALSE(all_stable_matchings(random_profile(3, seed)).empty());
  }
}

// Incomplete lists against the paper's fully-ordered model: a partial list
// is refused, never matched around, and each instance below is the one an
// incomplete-list (SMI) solver would take, with every list completed.

// Appends each party's unlisted opposite-side ids to its list, ascending.
PreferenceProfile completed(const std::vector<PreferenceList>& partial) {
  const auto k = static_cast<std::uint32_t>(partial.size() / 2);
  PreferenceProfile p(k);
  for (PartyId id = 0; id < 2 * k; ++id) {
    PreferenceList list = partial[id];
    for (const PartyId c : default_preference_list(side_of(id, k), k)) {
      if (std::find(list.begin(), list.end(), c) == list.end()) list.push_back(c);
    }
    p.set(id, std::move(list));
  }
  return p;
}

TEST(Incomplete, ConsistencyRequiresMutualAcceptability) {
  // Complete lists make every cross pair mutually acceptable; a profile in
  // which a party accepts nobody (its list unset) is not complete, and
  // Gale-Shapley refuses it.
  EXPECT_TRUE(completed({{2, 3}, {2}, {1, 0}, {0}}).complete());
  PreferenceProfile bad(2);
  bad.set(0, {2, 3});
  bad.set(2, {0, 1});
  bad.set(3, {0, 1});
  EXPECT_FALSE(bad.complete());
  EXPECT_THROW((void)gale_shapley(bad), std::logic_error);
}

TEST(Incomplete, SetRejectsMalformedLists) {
  PreferenceProfile p(2);
  EXPECT_THROW(p.set(0, {1, 0}), std::logic_error);  // own side
  EXPECT_THROW(p.set(0, {2, 2}), std::logic_error);  // duplicate
  EXPECT_THROW(p.set(0, {2, 9}), std::logic_error);  // out of range
  EXPECT_THROW(p.set(0, {2}), std::logic_error);     // partial
  EXPECT_THROW(p.set(0, {}), std::logic_error);      // accepts nobody
  EXPECT_TRUE(p.list(0).empty());
}

TEST(Incomplete, ExtendedGaleShapleyOnTinyInstance) {
  // 0 proposes to 2, which holds it until 1 proposes; 0 moves on to 3. The
  // completed tails are never reached, so the pairs are the SMI ones.
  const auto p = completed({{2, 3}, {2}, {1, 0}, {0}});
  const auto result = gale_shapley(p);
  EXPECT_EQ(result.matching, (Matching{3, 2, 1, 0}));
  EXPECT_EQ(result.proposals, 3U);
  EXPECT_TRUE(is_stable(p, result.matching));
}

TEST(Incomplete, UnmatchablePartiesStayAlone) {
  // Under SMI, 1 (accepting nobody) and 3 (acceptable to nobody) stay alone
  // beside 0-2. With complete lists that outcome is blocked by (1, 3), and
  // Gale-Shapley keeps 0-2 and pairs 1-3.
  const auto p = completed({{2}, {}, {0}, {}});
  const Matching alone{2, kNobody, 0, kNobody};
  EXPECT_FALSE(is_perfect_matching(alone, 2));
  EXPECT_EQ(blocking_pairs(p, alone), (std::vector<std::pair<PartyId, PartyId>>{{1, 3}}));
  EXPECT_EQ(gale_shapley(p).matching, (Matching{2, 3, 0, 1}));
}

TEST(Incomplete, EmptyProfileIsTriviallyStable) {
  // With complete lists, only the empty market (k = 0) has no acceptable
  // pair: nothing is proposed and the empty matching is stable.
  const PreferenceProfile p(0);
  EXPECT_TRUE(p.complete());
  const auto result = gale_shapley(p);
  EXPECT_EQ(result.proposals, 0U);
  EXPECT_TRUE(result.matching.empty());
  EXPECT_TRUE(is_stable(p, result.matching));
}

TEST(Incomplete, FullDensityMatchesClassicGaleShapley) {
  // Density 1.0 is the classic problem: completion changes no list, and
  // everyone is matched stably.
  const auto p = random_profile(4, 5);
  std::vector<PreferenceList> lists;
  for (PartyId id = 0; id < 8; ++id) lists.push_back(p.list(id));
  const auto result = gale_shapley(p);
  EXPECT_EQ(gale_shapley(completed(lists)).matching, result.matching);
  for (PartyId id = 0; id < 8; ++id) EXPECT_NE(result.matching[id], kNobody);
  EXPECT_TRUE(is_stable(p, result.matching));
}

}  // namespace
}  // namespace bsm::matching

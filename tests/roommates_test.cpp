// Tests for Irving's stable roommates algorithm, differential-tested
// against the exhaustive oracle, plus profile validation.
#include <gtest/gtest.h>

#include <algorithm>

#include "matching/roommates.hpp"

namespace bsm::matching {
namespace {

TEST(RoommateProfile, Validation) {
  EXPECT_TRUE(is_valid_roommate_profile({{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}));
  EXPECT_FALSE(is_valid_roommate_profile({}));                          // empty
  EXPECT_FALSE(is_valid_roommate_profile({{1}, {0}, {0}}));             // odd n
  EXPECT_FALSE(is_valid_roommate_profile({{1, 1}, {0, 2}}));            // dup / size
  EXPECT_FALSE(is_valid_roommate_profile({{0}, {1}}));                  // self-ranking
  EXPECT_TRUE(is_valid_roommate_profile({{1}, {0}}));                   // n = 2
}

TEST(Roommates, TrivialPair) {
  const auto m = stable_roommates({{1}, {0}});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ((*m)[0], 1U);
  EXPECT_EQ((*m)[1], 0U);
}

TEST(Roommates, IrvingTextbookInstance) {
  // The 6-agent instance from Irving's 1985 paper (0-indexed); it admits a
  // stable matching {0-5, 1-2, 3-4} — i.e. 1-3, 2-6, 4-5 in 1-indexing.
  const RoommatePreferences prefs{
      {3, 5, 1, 2, 4},  // 1: 4 6 2 3 5
      {5, 2, 3, 0, 4},  // 2: 6 3 4 1 5
      {1, 3, 4, 5, 0},  // 3: 2 4 5 6 1
      {2, 5, 1, 0, 4},  // 4: 3 6 2 1 5
      {2, 1, 3, 0, 5},  // 5: 3 2 4 1 6
      {4, 0, 1, 3, 2},  // 6: 5 1 2 4 3
  };
  const auto m = stable_roommates(prefs);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(is_stable_roommates(prefs, *m));
}

TEST(Roommates, ClassicNoSolutionInstance) {
  // Three agents rank each other cyclically and everyone ranks agent 3
  // last: the classic 4-agent instance with no stable matching.
  const RoommatePreferences prefs{
      {1, 2, 3},  // 0 prefers 1
      {2, 0, 3},  // 1 prefers 2
      {0, 1, 3},  // 2 prefers 0
      {0, 1, 2},
  };
  EXPECT_FALSE(stable_roommates(prefs).has_value());
  EXPECT_TRUE(all_stable_roommate_matchings(prefs).empty());
}

TEST(Roommates, BlockingPairDetection) {
  const RoommatePreferences prefs{
      {1, 2, 3},
      {0, 2, 3},
      {3, 0, 1},
      {2, 0, 1},
  };
  // Matching 0-2, 1-3: (0, 1) prefer each other.
  const RoommateMatching m{2, 3, 0, 1};
  const auto blocking = roommate_blocking_pairs(prefs, m);
  EXPECT_FALSE(blocking.empty());
  EXPECT_FALSE(is_stable_roommates(prefs, m));
  // Matching 0-1, 2-3 is stable.
  EXPECT_TRUE(is_stable_roommates(prefs, {1, 0, 3, 2}));
}

TEST(Roommates, UnmatchedAgentsFormBlockingPairs) {
  const RoommatePreferences prefs{{1}, {0}};
  EXPECT_EQ(roommate_blocking_pairs(prefs, {kNobody, kNobody}).size(), 1U);
}

class RoommatesRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoommatesRandom, AgreesWithBruteForceOracle) {
  for (const std::uint32_t n : {4U, 6U, 8U}) {
    const auto prefs = random_roommate_profile(n, GetParam() * 257 + n);
    ASSERT_TRUE(is_valid_roommate_profile(prefs));
    for (PartyId x = 0; x < n; ++x) {
      for (std::uint32_t pos = 0; pos + 1 < n; ++pos) {
        ASSERT_EQ(roommate_rank(prefs, x, prefs[x][pos]), pos);
      }
    }
    const auto oracle = all_stable_roommate_matchings(prefs);
    const auto irving = stable_roommates(prefs);
    ASSERT_EQ(irving.has_value(), !oracle.empty())
        << "existence disagreement at n=" << n << " seed=" << GetParam();
    if (irving.has_value()) {
      EXPECT_TRUE(is_stable_roommates(prefs, *irving));
      EXPECT_NE(std::find(oracle.begin(), oracle.end(), *irving), oracle.end())
          << "Irving's output not among the oracle's stable matchings";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoommatesRandom, ::testing::Range<std::uint64_t>(0, 60));

TEST(Roommates, LargerInstancesStayStable) {
  int solved = 0;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const auto prefs = random_roommate_profile(12, seed + 1000);
    const auto m = stable_roommates(prefs);
    if (m.has_value()) {
      ++solved;
      EXPECT_TRUE(is_stable_roommates(prefs, *m));
    }
  }
  EXPECT_GT(solved, 0) << "random 12-agent instances should usually be solvable";
}

}  // namespace
}  // namespace bsm::matching

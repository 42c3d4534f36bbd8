// The lazy-view contract (matching/view.hpp): a LazyProfile must be
// indistinguishable from its materialized counterpart — same ranks, same
// favorites, same Gale-Shapley execution, same stability verdicts — and
// the seeded permutations underneath must be true bijections with exact
// inverses. The differential tests here are what lets the big-n bench
// cases trust gale_shapley_over(LazyProfile) without ever materializing.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "matching/gale_shapley.hpp"
#include "matching/generators.hpp"
#include "matching/preferences.hpp"
#include "matching/stability.hpp"
#include "matching/view.hpp"

namespace bsm::matching {
namespace {

TEST(SeededPermutation, IsABijectionWithExactInverse) {
  for (const std::uint32_t m : {1U, 2U, 3U, 5U, 16U, 17U, 100U, 257U, 1000U}) {
    for (const std::uint64_t key : {0ULL, 1ULL, 0xdeadbeefULL}) {
      const SeededPermutation perm(m, key);
      std::vector<bool> hit(m, false);
      for (std::uint32_t pos = 0; pos < m; ++pos) {
        const std::uint32_t e = perm.forward(pos);
        ASSERT_LT(e, m) << "m=" << m << " key=" << key;
        ASSERT_FALSE(hit[e]) << "collision at m=" << m << " key=" << key;
        hit[e] = true;
        ASSERT_EQ(perm.inverse(e), pos);
      }
    }
  }
}

TEST(SeededPermutation, DifferentKeysGiveDifferentOrders) {
  const SeededPermutation a(64, 1);
  const SeededPermutation b(64, 2);
  bool differs = false;
  for (std::uint32_t pos = 0; pos < 64; ++pos) differs |= a.forward(pos) != b.forward(pos);
  EXPECT_TRUE(differs);
}

TEST(LazyProfile, MaterializedTwinAgreesOnEveryQuery) {
  for (const std::uint32_t k : {1U, 2U, 7U, 33U}) {
    for (const std::uint64_t seed : {1ULL, 42ULL, 0xfeedULL}) {
      const LazyProfile lazy(k, seed);
      const PreferenceProfile mat = lazy.materialize();
      ASSERT_TRUE(mat.complete()) << "lazy lists must be permutations of the opposite side";
      for (PartyId id = 0; id < 2 * k; ++id) {
        ASSERT_EQ(lazy.list_of(id), mat.list(id));
        ASSERT_EQ(lazy.favorite(id), mat.list(id)[0]);
        for (std::uint32_t pos = 0; pos < k; ++pos) {
          const PartyId candidate = mat.list(id)[pos];
          ASSERT_EQ(lazy.rank(id, candidate), mat.rank(id, candidate));
          ASSERT_EQ(lazy.rank(id, candidate), pos);
        }
      }
    }
  }
}

TEST(LazyProfile, GaleShapleyMatchesTheMaterializedRun) {
  for (const std::uint32_t k : {1U, 2U, 5U, 16U, 64U}) {
    for (const std::uint64_t seed : {7ULL, 2026ULL}) {
      const LazyProfile lazy(k, seed);
      const PreferenceProfile mat = lazy.materialize();
      const auto over_lazy = gale_shapley_over(lazy);
      const auto over_mat = gale_shapley(mat);
      ASSERT_EQ(over_lazy.matching, over_mat.matching) << "k=" << k << " seed=" << seed;
      ASSERT_EQ(over_lazy.proposals, over_mat.proposals)
          << "identical preference orders must drive the identical proposal sequence";
      ASSERT_TRUE(is_stable(mat, over_lazy.matching));
      ASSERT_TRUE(is_stable_over(lazy, over_lazy.matching));
    }
  }
}

TEST(LazyProfile, StabilityCheckersAgreeAcrossViews) {
  const std::uint32_t k = 12;
  const LazyProfile lazy(k, 5);
  const PreferenceProfile mat = lazy.materialize();
  // A deliberately unstable matching: pair l with r = k + l (identity).
  Matching m(2 * k);
  for (PartyId l = 0; l < k; ++l) {
    m[l] = k + l;
    m[k + l] = l;
  }
  const auto lazy_pairs = blocking_pairs_over(lazy, m);
  const auto mat_pairs = blocking_pairs(mat, m);
  EXPECT_EQ(lazy_pairs, mat_pairs);
  EXPECT_EQ(is_stable_over(lazy, m), is_stable(mat, m));
  // The Monte-Carlo probe finds blocking pairs exactly when the exhaustive
  // scan does (enough samples at this size to make a miss astronomically
  // unlikely -- and deterministic given the fixed seed).
  const std::uint64_t sampled = sampled_blocking_pairs_over(lazy, m, 20'000, 9);
  EXPECT_EQ(sampled > 0, !mat_pairs.empty());
  const auto stable = gale_shapley_over(lazy);
  EXPECT_EQ(sampled_blocking_pairs_over(lazy, stable.matching, 20'000, 9), 0U);
}

TEST(LazyProfile, RejectsOutOfRangeAndSameSideQueries) {
  const LazyProfile lazy(4, 1);
  EXPECT_THROW((void)lazy.at(0, 4), std::logic_error);        // pos past the list
  EXPECT_THROW((void)lazy.at(8, 0), std::logic_error);        // bad id
  EXPECT_THROW((void)lazy.rank(0, 1), std::logic_error);      // same side
  EXPECT_THROW((void)lazy.rank(5, 6), std::logic_error);      // same side (right)
  EXPECT_THROW((void)lazy.rank(0, 100), std::logic_error);    // bad candidate
  EXPECT_EQ(lazy.bytes_resident(), 0U);
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

}  // namespace
}  // namespace bsm::matching

// Differential coverage for core::PartySet against the std::set<PartyId>
// reference it replaced in the broadcast hot path: randomized
// insert/erase/count/contains/iteration agreement, >64-party sets spanning
// both words, the masked side counts the product quorums use, and the
// capacity edge: ids up to 127 are members like any other, and id 128 is
// refused by insert and never a member.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "common/party_set.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace bsm::core {
namespace {

[[nodiscard]] std::vector<PartyId> members_of(const PartySet& s) {
  std::vector<PartyId> out;
  s.for_each([&](PartyId p) { out.push_back(p); });
  return out;
}

TEST(PartySet, BasicMembershipAndCount) {
  PartySet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0U);
  s.insert(3);
  s.insert(70);
  s.insert(3);  // idempotent
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.count(), 2U);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(70));
  EXPECT_FALSE(s.contains(4));
  s.erase(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.count(), 1U);

  // Beyond the capacity: insert throws, contains and erase are no-ops.
  EXPECT_THROW(s.insert(PartySet::kCapacity), std::logic_error);
  EXPECT_FALSE(s.contains(PartySet::kCapacity));
  EXPECT_FALSE(s.contains(1000));
  s.erase(PartySet::kCapacity);
  s.erase(999);
  EXPECT_EQ(members_of(s), std::vector<PartyId>{70});

  // Equality is over members: an insert undone by erase leaves no trace.
  PartySet a;
  a.insert(5);
  PartySet b;
  b.insert(5);
  b.insert(100);
  b.erase(100);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(b == a);
  b.insert(100);
  EXPECT_FALSE(a == b);
}

TEST(PartySet, InitializerListAndIterationOrder) {
  const PartySet s{9, 2, 65, 0, 127};
  EXPECT_EQ(members_of(s), (std::vector<PartyId>{0, 2, 9, 65, 127}));
}

TEST(PartySet, UniverseAndRange) {
  const PartySet u = PartySet::universe(67);
  EXPECT_EQ(u.count(), 67U);
  EXPECT_TRUE(u.contains(0));
  EXPECT_TRUE(u.contains(66));
  EXPECT_FALSE(u.contains(67));

  const PartySet r = PartySet::range(60, 100);
  EXPECT_EQ(r.count(), 100U - 60U);
  EXPECT_FALSE(r.contains(59));
  EXPECT_TRUE(r.contains(60));
  EXPECT_TRUE(r.contains(99));
  EXPECT_FALSE(r.contains(100));

  const PartySet full = PartySet::universe(PartySet::kCapacity);
  EXPECT_EQ(full.count(), PartySet::kCapacity);
  EXPECT_TRUE(full.contains(127));
  EXPECT_EQ(full.count_and(PartySet::range(64, 128)), 64U);
}

TEST(PartySet, ClearKeepsCapacityAndEmptiesTheSet) {
  PartySet s{1, 70, 127};
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0U);
  EXPECT_FALSE(s.contains(70));
  s.insert(70);
  EXPECT_TRUE(s.contains(70));
}

TEST(PartySet, RandomizedDifferentialAgainstStdSet) {
  // Ids stay in word 0, span both words or fill the capacity; a copy round
  // trip rides along, so every operation is also checked on copies.
  Rng rng(2024);
  const std::uint32_t bounds[4] = {60, 64, 100, 128};
  for (int round = 0; round < 60; ++round) {
    PartySet flat;
    std::set<PartyId> ref;
    const std::uint32_t id_bound = bounds[round % 4];
    for (int op = 0; op < 200; ++op) {
      const PartyId p = static_cast<PartyId>(rng.below(id_bound));
      if (rng.chance(0.7)) {
        flat.insert(p);
        ref.insert(p);
      } else {
        flat.erase(p);
        ref.erase(p);
      }
      ASSERT_EQ(flat.contains(p), ref.contains(p));
      if (op % 25 == 0) {
        const PartySet copy = flat;
        ASSERT_TRUE(copy == flat);
        flat.clear();
        flat = copy;
        ASSERT_EQ(members_of(flat), std::vector<PartyId>(ref.begin(), ref.end()));
      }
    }
    ASSERT_EQ(flat.count(), ref.size());
    ASSERT_EQ(members_of(flat), std::vector<PartyId>(ref.begin(), ref.end()))
        << "iteration must be ascending, matching std::set";
  }
}

TEST(PartySet, MembershipAtTheInlineBoundary) {
  // Word 0 holds ids 0..63 and word 1 ids 64..127; 128 is out of range.
  for (const PartyId p : {0U, 63U, 64U, 127U}) {
    PartySet s;
    s.insert(p);
    EXPECT_TRUE(s.contains(p)) << p;
    EXPECT_FALSE(s.contains(p - 1)) << p;
    EXPECT_FALSE(s.contains(p + 1)) << p;
    EXPECT_EQ(s.count(), 1U) << p;
    EXPECT_EQ(members_of(s), std::vector<PartyId>{p});
    s.erase(p);
    EXPECT_TRUE(s.empty()) << p;
  }
  PartySet all{0, 63, 64, 127};
  EXPECT_EQ(all.count(), 4U);
  EXPECT_EQ(members_of(all), (std::vector<PartyId>{0, 63, 64, 127}));
  EXPECT_FALSE(all.contains(1));
  EXPECT_FALSE(all.contains(62));
  EXPECT_FALSE(all.contains(65));
  EXPECT_FALSE(all.contains(126));
  EXPECT_FALSE(all.contains(128));
}

TEST(PartySet, MaskedCountsMatchSetIntersection) {
  // Both-sides product masks over a 2k universe: within word 0, with side
  // R crossing into word 1, and at the largest market (k = 64).
  Rng rng(7);
  for (const std::uint32_t k : {3U, 8U, 40U, 64U}) {
    const PartySet left = PartySet::range(0, k);
    const PartySet right = PartySet::range(k, 2 * k);
    PartySet holders;
    std::set<PartyId> ref;
    for (std::uint32_t i = 0; i < k; ++i) {
      const PartyId p = static_cast<PartyId>(rng.below(2 * k));
      holders.insert(p);
      ref.insert(p);
    }
    std::uint32_t cl = 0;
    std::uint32_t cr = 0;
    for (PartyId p : ref) (p < k ? cl : cr)++;
    EXPECT_EQ(holders.count_and(left), cl) << "k=" << k;
    EXPECT_EQ(holders.count_and(right), cr) << "k=" << k;
    EXPECT_EQ(holders.count_and(holders), holders.count());
    EXPECT_EQ(left.count_and(right), 0U);
  }
}

}  // namespace
}  // namespace bsm::core

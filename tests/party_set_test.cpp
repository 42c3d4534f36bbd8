// Differential coverage for core::PartySet against the std::set<PartyId>
// reference it replaced in the broadcast hot path: randomized
// insert/erase/count/contains/iteration agreement, >64-party sets spanning
// multiple words, the masked side counts the product quorums use, and the
// boundary between the inline words (ids < 128) and a spilled heap block:
// membership, copy and move across the two representations, and mixed
// operands.
#include <gtest/gtest.h>

#include <set>
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
  EXPECT_FALSE(s.contains(1000));  // beyond allocated words
  s.erase(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.count(), 1U);
  s.erase(999);  // out of range: no-op
  EXPECT_EQ(s.count(), 1U);
}

TEST(PartySet, InitializerListAndIterationOrder) {
  const PartySet s{9, 2, 65, 0, 128};
  EXPECT_EQ(members_of(s), (std::vector<PartyId>{0, 2, 9, 65, 128}));
}

TEST(PartySet, UniverseAndRange) {
  const PartySet u = PartySet::universe(67);
  EXPECT_EQ(u.count(), 67U);
  EXPECT_TRUE(u.contains(0));
  EXPECT_TRUE(u.contains(66));
  EXPECT_FALSE(u.contains(67));

  const PartySet r = PartySet::range(64, 130);
  EXPECT_EQ(r.count(), 130U - 64U);
  EXPECT_FALSE(r.contains(63));
  EXPECT_TRUE(r.contains(64));
  EXPECT_TRUE(r.contains(129));
  EXPECT_FALSE(r.contains(130));
}

TEST(PartySet, EqualityIgnoresTrailingZeroWords) {
  PartySet a;
  a.insert(5);
  PartySet b;
  b.insert(5);
  b.insert(200);
  b.erase(200);  // words allocated but zero
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(b == a);
  b.insert(200);
  EXPECT_FALSE(a == b);
}

TEST(PartySet, ClearKeepsCapacityAndEmptiesTheSet) {
  PartySet s{1, 70, 300};
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0U);
  EXPECT_FALSE(s.contains(70));
  s.insert(70);
  EXPECT_TRUE(s.contains(70));
}

TEST(PartySet, RandomizedDifferentialAgainstStdSet) {
  // Ids span several words and cross the inline/heap boundary at 128; a
  // copy and a move round trip ride along, so every operation is checked
  // on sets that spilled mid-sequence as well as on inline ones.
  Rng rng(2024);
  const std::uint32_t bounds[4] = {60, 128, 129, 300};
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
        PartySet moved = std::move(flat);
        ASSERT_TRUE(flat.empty());
        flat = std::move(moved);
        ASSERT_EQ(members_of(flat), std::vector<PartyId>(ref.begin(), ref.end()));
      }
    }
    ASSERT_EQ(flat.count(), ref.size());
    ASSERT_EQ(members_of(flat), std::vector<PartyId>(ref.begin(), ref.end()))
        << "iteration must be ascending, matching std::set";
  }
}

TEST(PartySet, MembershipAtTheInlineBoundary) {
  // Words 0 and 1 are inline; id 128 is the first that spills.
  for (const PartyId p : {63U, 64U, 127U, 128U, 200U}) {
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
  PartySet all{63, 64, 127, 128, 200};
  EXPECT_EQ(all.count(), 5U);
  EXPECT_EQ(members_of(all), (std::vector<PartyId>{63, 64, 127, 128, 200}));
  EXPECT_FALSE(all.contains(129));
  EXPECT_FALSE(all.contains(199));
  EXPECT_FALSE(all.contains(201));
}

TEST(PartySet, CopyAndMoveAcrossInlineAndSpilled) {
  const PartySet inline_set{1, 64, 127};
  const PartySet spilled{2, 128, 300};

  // Copy construction and assignment in all four directions.
  PartySet a = inline_set;
  EXPECT_EQ(members_of(a), (std::vector<PartyId>{1, 64, 127}));
  a = spilled;  // inline -> spilled
  EXPECT_EQ(members_of(a), (std::vector<PartyId>{2, 128, 300}));
  a = inline_set;  // spilled -> inline contents (keeps its heap block)
  EXPECT_EQ(members_of(a), (std::vector<PartyId>{1, 64, 127}));
  EXPECT_FALSE(a.contains(300));
  EXPECT_TRUE(a == inline_set);
  PartySet b = spilled;
  b = spilled;
  EXPECT_TRUE(b == spilled);
  const PartySet& same = b;
  b = same;  // self-assignment
  EXPECT_TRUE(b == spilled);

  // Moves: a moved-from set is empty and reusable in either representation.
  PartySet from_spilled = spilled;
  PartySet to_spilled = std::move(from_spilled);
  EXPECT_TRUE(to_spilled == spilled);
  EXPECT_TRUE(from_spilled.empty());
  EXPECT_EQ(from_spilled.count(), 0U);
  from_spilled.insert(500);
  from_spilled.insert(3);
  EXPECT_EQ(members_of(from_spilled), (std::vector<PartyId>{3, 500}));

  PartySet from_inline = inline_set;
  PartySet to_inline = std::move(from_inline);
  EXPECT_TRUE(to_inline == inline_set);
  EXPECT_TRUE(from_inline.empty());
  from_inline.insert(7);
  EXPECT_EQ(members_of(from_inline), std::vector<PartyId>{7});

  // Move assignment over a spilled target, then back over an inline one.
  PartySet target = spilled;
  PartySet source = inline_set;
  target = std::move(source);
  EXPECT_TRUE(target == inline_set);
  EXPECT_FALSE(target.contains(128));
  EXPECT_TRUE(source.empty());
  source = std::move(to_spilled);
  EXPECT_TRUE(source == spilled);
  EXPECT_TRUE(to_spilled.empty());
  to_spilled.insert(128);
  EXPECT_TRUE(to_spilled.contains(128));
}

TEST(PartySet, MixedRepresentationOperandsAgree) {
  // One operand inline, the other spilled, in both orders.
  PartySet small{3, 70, 100};
  PartySet big{3, 70, 100};
  big.insert(400);
  big.erase(400);  // spilled, trailing words zero
  EXPECT_TRUE(small == big);
  EXPECT_TRUE(big == small);
  big.insert(130);
  EXPECT_FALSE(small == big);
  EXPECT_FALSE(big == small);

  EXPECT_EQ(small.count_and(big), 3U);
  EXPECT_EQ(big.count_and(small), 3U);
  const PartySet left = PartySet::range(0, 64);
  const PartySet wide = PartySet::range(64, 260);
  EXPECT_EQ(big.count_and2(left, wide), (std::pair<std::uint32_t, std::uint32_t>{1, 3}));
  EXPECT_EQ(small.count_and2(wide, left), (std::pair<std::uint32_t, std::uint32_t>{2, 1}));
  EXPECT_EQ(wide.count_and2(small, big), (std::pair<std::uint32_t, std::uint32_t>{2, 3}));
}

TEST(PartySet, MaskedCountsMatchSetIntersection) {
  // Both-sides product masks over a 2k universe with k crossing one word.
  Rng rng(7);
  for (const std::uint32_t k : {3U, 8U, 40U, 70U}) {
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

TEST(PartySet, CountAndClipsMismatchedWordCounts) {
  // Regression: the AND sweep must iterate the *shorter* word span in both
  // directions — sets grow on demand, so operands routinely differ in
  // allocated words, and ids beyond either operand's words cannot intersect.
  PartySet small;
  small.insert(5);
  PartySet big;
  big.insert(5);
  big.insert(900);  // 15 words vs small's 1
  EXPECT_EQ(small.count_and(big), 1U);
  EXPECT_EQ(big.count_and(small), 1U);

  const PartySet empty;
  EXPECT_EQ(empty.count_and(big), 0U);
  EXPECT_EQ(big.count_and(empty), 0U);
  EXPECT_EQ(empty.count_and(empty), 0U);

  // Spans long enough to exercise the unrolled 4-word main loop plus tail.
  PartySet a = PartySet::range(0, 500);
  PartySet b = PartySet::range(250, 1000);
  EXPECT_EQ(a.count_and(b), 250U);
  EXPECT_EQ(b.count_and(a), 250U);
}

TEST(PartySet, CountAnd2MatchesTwoCountAndCalls) {
  Rng rng(99);
  for (int round = 0; round < 40; ++round) {
    PartySet holders;
    PartySet ma;
    PartySet mb;
    // Deliberately unequal word counts across the three operands.
    const std::uint32_t bounds[3] = {static_cast<std::uint32_t>(1 + rng.below(700)),
                                     static_cast<std::uint32_t>(1 + rng.below(700)),
                                     static_cast<std::uint32_t>(1 + rng.below(700))};
    for (std::uint32_t i = 0; i < 120; ++i) {
      holders.insert(static_cast<PartyId>(rng.below(bounds[0])));
      ma.insert(static_cast<PartyId>(rng.below(bounds[1])));
      mb.insert(static_cast<PartyId>(rng.below(bounds[2])));
    }
    const auto [ca, cb] = holders.count_and2(ma, mb);
    ASSERT_EQ(ca, holders.count_and(ma));
    ASSERT_EQ(cb, holders.count_and(mb));
  }
  // Degenerate shapes.
  const PartySet empty;
  const PartySet one{3};
  EXPECT_EQ(empty.count_and2(one, one), (std::pair<std::uint32_t, std::uint32_t>{0, 0}));
  EXPECT_EQ(one.count_and2(empty, one), (std::pair<std::uint32_t, std::uint32_t>{0, 1}));
  EXPECT_EQ(one.count_and2(one, empty), (std::pair<std::uint32_t, std::uint32_t>{1, 0}));
}

}  // namespace
}  // namespace bsm::core

// Unit tests for src/common: codec round-trips and hostile-input behaviour
// (a truncation sweep over every inlined read), hashing (the
// transcript-defining kernels pinned by known vectors), RNG determinism,
// table rendering, id/side helpers.
#include <gtest/gtest.h>

#include <span>
#include <string_view>

#include "common/codec.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace bsm {
namespace {

TEST(Types, SideOfSplitsAtK) {
  EXPECT_EQ(side_of(0, 3), Side::Left);
  EXPECT_EQ(side_of(2, 3), Side::Left);
  EXPECT_EQ(side_of(3, 3), Side::Right);
  EXPECT_EQ(side_of(5, 3), Side::Right);
}

TEST(Types, OppositeFlips) {
  EXPECT_EQ(opposite(Side::Left), Side::Right);
  EXPECT_EQ(opposite(Side::Right), Side::Left);
}

TEST(Types, SideMembersAscending) {
  EXPECT_EQ(side_members(Side::Left, 3), (std::vector<PartyId>{0, 1, 2}));
  EXPECT_EQ(side_members(Side::Right, 3), (std::vector<PartyId>{3, 4, 5}));
}

TEST(Types, SideIndexWithinSide) {
  EXPECT_EQ(side_index(0, 4), 0U);
  EXPECT_EQ(side_index(3, 4), 3U);
  EXPECT_EQ(side_index(4, 4), 0U);
  EXPECT_EQ(side_index(7, 4), 3U);
}

TEST(Types, RequireThrowsOnViolation) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "boom"), std::logic_error);
}

TEST(Codec, RoundTripScalars) {
  Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.done());
}

TEST(Codec, RoundTripComposites) {
  Writer w;
  w.bytes(Bytes{1, 2, 3});
  w.u32_vec({10, 20, 30});
  w.str("hello");
  Reader r(w.data());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.u32_vec(), (std::vector<std::uint32_t>{10, 20, 30}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Codec, EmptyContainersRoundTrip) {
  Writer w;
  w.bytes({});
  w.u32_vec({});
  w.str("");
  Reader r(w.data());
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.u32_vec().empty());
  EXPECT_TRUE(r.str().empty());
  EXPECT_TRUE(r.done());
}

TEST(Codec, ShortBufferFailsSoftly) {
  Bytes two{1, 2};
  Reader r(two);
  (void)r.u32();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
  // Subsequent reads stay failed and return zero values, never throw.
  EXPECT_EQ(r.u64(), 0U);
  EXPECT_TRUE(r.bytes().empty());
}

TEST(Codec, TruncationSweepFailsAtTheFirstShortField) {
  // One frame holding a u8, a u32, a u64, a length-prefixed field and an
  // empty one, decoded from every prefix: the fields that fit decode
  // exactly (bytes_view as a view into the frame, not a copy); the first
  // that does not returns 0 (or an empty view) and clears ok(); and every
  // read after it stays 0 or empty.
  const Bytes body{0xde, 0xad, 0xbe, 0xef, 0x01};
  Writer w;
  w.u8(0xa5);
  w.u32(0x01020304U);
  w.u64(0x1122334455667788ULL);
  w.bytes(body);
  w.bytes(Bytes{});
  const Bytes frame = w.data();
  const std::size_t body_at = 1 + 4 + 8 + 4;
  ASSERT_EQ(frame.size(), body_at + body.size() + 4);
  for (std::size_t len = 0; len <= frame.size(); ++len) {
    Reader r(ByteView(frame.data(), len));
    const std::uint8_t a = r.u8();
    const std::uint32_t b = r.u32();
    const std::uint64_t c = r.u64();
    const ByteView d = r.bytes_view();
    const ByteView e = r.bytes_view();
    EXPECT_EQ(a, len >= 1 ? 0xa5U : 0U) << len;
    EXPECT_EQ(b, len >= 5 ? 0x01020304U : 0U) << len;
    EXPECT_EQ(c, len >= 13 ? 0x1122334455667788ULL : 0U) << len;
    if (len >= body_at + body.size()) {
      EXPECT_EQ(d.data(), frame.data() + body_at) << len;
      EXPECT_EQ(Bytes(d.begin(), d.end()), body) << len;
    } else {
      EXPECT_TRUE(d.empty()) << len;
    }
    EXPECT_TRUE(e.empty()) << len;
    const bool whole = len == frame.size();
    EXPECT_EQ(r.ok(), whole) << len;
    EXPECT_EQ(r.done(), whole) << len;
    if (whole) continue;
    EXPECT_EQ(r.u8(), 0U) << len;
    EXPECT_EQ(r.u32(), 0U) << len;
    EXPECT_EQ(r.u64(), 0U) << len;
    EXPECT_TRUE(r.bytes_view().empty()) << len;
    EXPECT_FALSE(r.ok()) << len;
  }
}

TEST(Codec, HugeLengthPrefixRejected) {
  Writer w;
  w.u32(0xFFFFFFFF);  // absurd element count for u32_vec
  Reader r(w.data());
  EXPECT_TRUE(r.u32_vec().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Codec, TrailingBytesDetectedByDone) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.data());
  (void)r.u8();
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.done());
}

TEST(Codec, GarbageFuzzNeverThrows) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    const Bytes garbage = rng.random_bytes(rng.below(64));
    Reader r(garbage);
    (void)r.u8();
    (void)r.bytes();
    (void)r.u32_vec();
    (void)r.str();
    (void)r.u64();
    SUCCEED();
  }
}

TEST(Hash, Fnv1aMatchesKnownVector) {
  // FNV-1a 64-bit of empty input is the offset basis.
  EXPECT_EQ(fnv1a64(Bytes{}), 0xcbf29ce484222325ULL);
}

TEST(Hash, TranscriptKernelsMatchPinnedVectors) {
  // Every view hash, digest and signature tag is built from these three
  // functions, so their values may never move. The FNV-1a vectors are the
  // published ones; the splitmix64 and hash_combine values are the ones
  // every recorded golden and digest was computed with.
  const auto fnv = [](std::string_view s) {
    return fnv1a64(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  };
  EXPECT_EQ(fnv("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(hash_combine(1, 2), 0xa3efbcce2e044f84ULL);
}

TEST(Hash, DifferentInputsDiffer) {
  EXPECT_NE(fnv1a64(Bytes{1, 2, 3}), fnv1a64(Bytes{1, 2, 4}));
  EXPECT_NE(fnv1a64(Bytes{1, 2, 3}), fnv1a64(Bytes{3, 2, 1}));
}

TEST(Hash, Fnv1aViewOverloadMatchesBytesOverload) {
  const Bytes data{9, 8, 7, 6, 5};
  EXPECT_EQ(fnv1a64(std::span<const std::uint8_t>(data.data(), data.size())), fnv1a64(data));
}

TEST(Hash, CombineIsOrderDependent) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Hash, HexRendersFixedWidth) {
  EXPECT_EQ(to_hex(0), "0000000000000000");
  EXPECT_EQ(to_hex(0xDEADBEEFULL), "00000000deadbeef");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng r1(7);
  Rng r2(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r1.next(), r2.next());
}

TEST(Rng, SeedsDiverge) {
  Rng r1(7);
  Rng r2(8);
  bool differ = false;
  for (int i = 0; i < 10; ++i) differ |= r1.next() != r2.next();
  EXPECT_TRUE(differ);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17U);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(13);
  const auto p = rng.permutation(20);
  std::vector<bool> seen(20, false);
  for (auto v : p) {
    ASSERT_LT(v, 20U);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
  // Three lines of content plus header rule.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW((void)t.render());
}

}  // namespace
}  // namespace bsm

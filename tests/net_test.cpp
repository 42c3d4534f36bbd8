// Tests for the topologies and the synchronous engine: channel structure,
// one-round delivery, sender authentication, corruption handling, view
// hashes, traffic statistics, multicast, and payload interning.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/hash.hpp"
#include "net/engine.hpp"
#include "net/topology.hpp"

namespace bsm::net {
namespace {

TEST(Topology, FullyConnectedHasAllPairs) {
  Topology t(TopologyKind::FullyConnected, 3);
  for (PartyId a = 0; a < 6; ++a) {
    for (PartyId b = 0; b < 6; ++b) {
      EXPECT_EQ(t.connected(a, b), a != b) << a << "," << b;
    }
  }
}

TEST(Topology, BipartiteOnlyCrossSide) {
  Topology t(TopologyKind::Bipartite, 3);
  EXPECT_TRUE(t.connected(0, 3));
  EXPECT_TRUE(t.connected(5, 2));
  EXPECT_FALSE(t.connected(0, 1));  // L-L
  EXPECT_FALSE(t.connected(3, 4));  // R-R
}

TEST(Topology, OneSidedDisconnectsLOnly) {
  Topology t(TopologyKind::OneSided, 3);
  EXPECT_FALSE(t.connected(0, 1));  // L-L
  EXPECT_TRUE(t.connected(3, 4));   // R-R
  EXPECT_TRUE(t.connected(0, 4));   // cross
  EXPECT_FALSE(t.side_connected(Side::Left));
  EXPECT_TRUE(t.side_connected(Side::Right));
}

TEST(Topology, NeighborsMatchConnected) {
  for (auto kind :
       {TopologyKind::FullyConnected, TopologyKind::OneSided, TopologyKind::Bipartite}) {
    Topology t(kind, 4);
    for (PartyId id = 0; id < t.n(); ++id) {
      for (PartyId other : t.neighbors(id)) {
        EXPECT_TRUE(t.connected(id, other));
      }
      std::size_t count = 0;
      for (PartyId other = 0; other < t.n(); ++other) count += t.connected(id, other);
      EXPECT_EQ(count, t.neighbors(id).size());
    }
  }
}

TEST(Topology, SelfAndOutOfRangeNotConnected) {
  Topology t(TopologyKind::FullyConnected, 2);
  EXPECT_FALSE(t.connected(1, 1));
  EXPECT_FALSE(t.connected(0, 4));
  EXPECT_FALSE(t.connected(9, 0));
}

/// Sends one message to a fixed peer at round 0; records everything heard.
class PingProcess final : public Process {
 public:
  PingProcess(PartyId peer, Bytes payload) : peer_(peer), payload_(std::move(payload)) {}

  void on_round(Context& ctx, Inbox inbox) override {
    if (ctx.round() == 0) ctx.send(peer_, payload_);
    // Payload views live for one round: keep a copy of the bytes.
    for (const auto& env : inbox) {
      heard_.push_back({env.from, env.sent_round, Bytes(env.payload.begin(), env.payload.end())});
    }
  }

  struct Heard {
    PartyId from;
    Round sent_round;
    Bytes payload;
  };
  std::vector<Heard> heard_;

 private:
  PartyId peer_;
  Bytes payload_;
};

TEST(Engine, DeliversNextRoundWithTrueSender) {
  Engine engine(Topology(TopologyKind::FullyConnected, 1), 1);
  engine.set_process(0, std::make_unique<PingProcess>(1, Bytes{42}));
  engine.set_process(1, std::make_unique<PingProcess>(0, Bytes{24}));
  engine.run_guarded(2);
  const auto& p1 = dynamic_cast<PingProcess&>(engine.process(1));
  ASSERT_EQ(p1.heard_.size(), 1U);
  EXPECT_EQ(p1.heard_[0].from, 0U);
  EXPECT_EQ(p1.heard_[0].payload, Bytes{42});
  EXPECT_EQ(p1.heard_[0].sent_round, 0U);
}

TEST(Engine, SelfSendLoopsBack) {
  Engine engine(Topology(TopologyKind::Bipartite, 1), 1);
  engine.set_process(0, std::make_unique<PingProcess>(0, Bytes{7}));
  engine.set_process(1, std::make_unique<PingProcess>(1, Bytes{8}));
  engine.run_guarded(2);
  const auto& p0 = dynamic_cast<PingProcess&>(engine.process(0));
  ASSERT_EQ(p0.heard_.size(), 1U);
  EXPECT_EQ(p0.heard_[0].from, 0U);
}

TEST(Engine, HonestSendOnMissingChannelThrows) {
  Engine engine(Topology(TopologyKind::Bipartite, 1), 1);
  engine.set_process(0, std::make_unique<PingProcess>(1, Bytes{1}));  // L-L: no channel... k=1 -> 0,1 cross
  // k = 1: parties 0 (L) and 1 (R) are connected; use a bigger bipartite
  // market to get a missing L-L channel.
  Engine e2(Topology(TopologyKind::Bipartite, 2), 1);
  e2.set_process(0, std::make_unique<PingProcess>(1, Bytes{1}));  // 0 -> 1 is L-L
  e2.set_process(1, std::make_unique<PingProcess>(3, Bytes{1}));
  e2.set_process(2, std::make_unique<PingProcess>(0, Bytes{1}));
  e2.set_process(3, std::make_unique<PingProcess>(0, Bytes{1}));
  EXPECT_THROW(e2.run_guarded(1), std::logic_error);
}

TEST(Engine, CorruptSendOnMissingChannelIsDropped) {
  Engine engine(Topology(TopologyKind::Bipartite, 2), 1);
  engine.set_corrupt(0, std::make_unique<PingProcess>(1, Bytes{1}));  // byz 0 tries L-L
  engine.set_process(1, std::make_unique<PingProcess>(3, Bytes{1}));
  engine.set_process(2, std::make_unique<PingProcess>(0, Bytes{1}));
  engine.set_process(3, std::make_unique<PingProcess>(0, Bytes{1}));
  EXPECT_NO_THROW(engine.run_guarded(2));
  const auto& p1 = dynamic_cast<PingProcess&>(engine.process(1));
  EXPECT_TRUE(p1.heard_.empty());  // byz message along nonexistent channel dropped
}

TEST(Engine, ScheduledCorruptionReplacesProcess) {
  // Party 0 pings every round via a chatty process; after corruption at
  // round 2 it is replaced by silence.
  class Chatty final : public Process {
   public:
    void on_round(Context& ctx, Inbox) override { ctx.send(1, Bytes{9}); }
  };
  class Quiet final : public Process {
   public:
    void on_round(Context&, Inbox) override {}
  };
  Engine engine(Topology(TopologyKind::FullyConnected, 1), 1);
  engine.set_process(0, std::make_unique<Chatty>());
  engine.set_process(1, std::make_unique<PingProcess>(0, Bytes{0}));
  engine.schedule_corruption(0, 2, std::make_unique<Quiet>());
  engine.run_guarded(5);
  EXPECT_TRUE(engine.is_corrupt(0));
  EXPECT_FALSE(engine.is_corrupt(1));
  const auto& p1 = dynamic_cast<PingProcess&>(engine.process(1));
  // Rounds 0 and 1 produce pings delivered at rounds 1 and 2; later rounds silent.
  EXPECT_EQ(p1.heard_.size(), 2U);
}

TEST(Engine, ViewHashesIdenticalForIdenticalRuns) {
  auto build = [] {
    Engine engine(Topology(TopologyKind::FullyConnected, 2), 7);
    for (PartyId id = 0; id < 4; ++id) {
      engine.set_process(id, std::make_unique<PingProcess>((id + 1) % 4, Bytes{std::uint8_t(id)}));
    }
    engine.run_guarded(3);
    return engine.view_hash(2);
  };
  EXPECT_EQ(build(), build());
}

TEST(Engine, ViewHashesDifferWhenTrafficDiffers) {
  auto build = [](std::uint8_t payload) {
    Engine engine(Topology(TopologyKind::FullyConnected, 1), 7);
    engine.set_process(0, std::make_unique<PingProcess>(1, Bytes{payload}));
    engine.set_process(1, std::make_unique<PingProcess>(0, Bytes{3}));
    engine.run_guarded(2);
    return engine.view_hash(1);
  };
  EXPECT_NE(build(1), build(2));
}

TEST(Engine, TrafficStatsCountMessagesAndBytes) {
  Engine engine(Topology(TopologyKind::FullyConnected, 1), 1);
  engine.set_process(0, std::make_unique<PingProcess>(1, Bytes{1, 2, 3}));
  engine.set_process(1, std::make_unique<PingProcess>(0, Bytes{4}));
  engine.run_guarded(2);
  EXPECT_EQ(engine.stats().messages, 2U);
  EXPECT_EQ(engine.stats().bytes, 4U);
}

/// Every round, sends two payloads to a fixed recipient list (repeats and
/// self included): one only this party sends, and one every party sends.
/// `batched` picks one multicast per payload or a loop of send(). Records
/// its inbox as (sender, bytes) pairs.
class FanOut final : public Process {
 public:
  FanOut(std::vector<PartyId> to, bool batched) : to_(std::move(to)), batched_(batched) {}

  void on_round(Context& ctx, Inbox inbox) override {
    for (const auto& env : inbox) {
      heard_.emplace_back(env.from, Bytes(env.payload.begin(), env.payload.end()));
    }
    const Bytes own{static_cast<std::uint8_t>(ctx.self()), static_cast<std::uint8_t>(ctx.round())};
    const Bytes shared(40, static_cast<std::uint8_t>(ctx.round()));
    for (const Bytes* payload : {&own, &shared}) {
      if (batched_) {
        ctx.multicast(to_, *payload);
      } else {
        for (PartyId p : to_) ctx.send(p, *payload);
      }
    }
  }

  std::vector<std::pair<PartyId, Bytes>> heard_;

 private:
  std::vector<PartyId> to_;
  bool batched_;
};

/// What a run shows from outside: every view hash, the traffic totals and
/// every inbox.
struct Transcript {
  std::vector<std::uint64_t> views;
  TrafficStats stats;
  std::vector<std::vector<std::pair<PartyId, Bytes>>> inboxes;

  bool operator==(const Transcript&) const = default;
};

[[nodiscard]] Transcript fan_out_run(bool batched) {
  Engine engine(Topology(TopologyKind::FullyConnected, 2), 7);
  for (PartyId id = 0; id < 4; ++id) {
    // Recipients out of order, repeated, and including the sender.
    engine.set_process(id, std::make_unique<FanOut>(
                               std::vector<PartyId>{3, id, 0, 3, (id + 1) % 4}, batched));
  }
  engine.run_guarded(4);
  Transcript t;
  t.stats = engine.stats();
  for (PartyId id = 0; id < 4; ++id) {
    t.views.push_back(engine.view_hash(id));
    t.inboxes.push_back(dynamic_cast<FanOut&>(engine.process(id)).heard_);
  }
  return t;
}

TEST(Engine, MulticastMatchesALoopOfSends) {
  const Transcript batched = fan_out_run(true);
  const Transcript looped = fan_out_run(false);
  EXPECT_EQ(batched.views, looped.views);
  EXPECT_EQ(batched.stats, looped.stats);
  EXPECT_EQ(batched.inboxes, looped.inboxes);
  EXPECT_EQ(batched.stats.messages, 4U * 4U * 2U * 5U);  // rounds x parties x payloads x recipients
  // Party 0's inbox each round is ordered by sender, then send order:
  // parties 0 and 3 list it twice, 1 and 2 once, so 12 envelopes a round,
  // and the last four of the first are party 3's own payload twice, then
  // the shared one twice.
  using Heard = std::vector<std::pair<PartyId, Bytes>>;
  const Heard& inbox0 = batched.inboxes[0];
  ASSERT_EQ(inbox0.size(), 3U * 12U);
  EXPECT_EQ(Heard(inbox0.begin() + 8, inbox0.begin() + 12),
            (Heard{{3, Bytes{3, 0}}, {3, Bytes{3, 0}}, {3, Bytes(40, 0)}, {3, Bytes(40, 0)}}));
}

TEST(Engine, HonestMulticastOnMissingChannelThrows) {
  // Bipartite k = 2: 0 -> 2 is a channel, 0 -> 1 (L-L) is not.
  Engine engine(Topology(TopologyKind::Bipartite, 2), 1);
  engine.set_process(0, std::make_unique<FanOut>(std::vector<PartyId>{2, 1}, true));
  EXPECT_THROW(engine.run_guarded(1), std::logic_error);
}

TEST(Engine, CorruptMulticastOnMissingChannelIsDropped) {
  Engine engine(Topology(TopologyKind::Bipartite, 2), 1);
  engine.set_corrupt(0, std::make_unique<FanOut>(std::vector<PartyId>{2, 1, 3}, true));
  for (PartyId id = 1; id < 4; ++id) {
    engine.set_process(id, std::make_unique<FanOut>(std::vector<PartyId>{}, true));
  }
  EXPECT_NO_THROW(engine.run_guarded(2));
  EXPECT_TRUE(dynamic_cast<FanOut&>(engine.process(1)).heard_.empty());
  EXPECT_EQ(dynamic_cast<FanOut&>(engine.process(2)).heard_.size(), 2U);
  EXPECT_EQ(dynamic_cast<FanOut&>(engine.process(3)).heard_.size(), 2U);
  EXPECT_EQ(engine.stats().messages, 2U * 2U * 2U);  // rounds x payloads x live channels
}

TEST(PayloadArena, InternSeparatesOneByteDifferencesAtEveryLength) {
  // content_key hashes 8-byte words, in four lanes over 32-byte stripes,
  // then a tail; lengths 7-9, 31-33 and 63-65 cross those boundaries.
  // Whatever the key does, a payload that differs in one byte must get
  // its own copy and its own digest, and equal bytes one shared copy.
  PayloadArena arena;
  for (std::size_t len = 0; len <= 80; ++len) {
    arena.reset();
    Bytes base(len);
    for (std::size_t i = 0; i < len; ++i) base[i] = static_cast<std::uint8_t>(37 * i + len);
    const PayloadArena::Interned first = arena.intern(base);
    EXPECT_TRUE(std::ranges::equal(first.bytes, base)) << len;
    EXPECT_EQ(first.digest, fnv1a64(base)) << len;
    const PayloadArena::Interned again = arena.intern(base);
    EXPECT_EQ(again.bytes.data(), first.bytes.data()) << len;
    EXPECT_EQ(again.digest, first.digest) << len;
    for (std::size_t pos = 0; pos < len; ++pos) {
      Bytes other = base;
      other[pos] ^= 0x01;
      const PayloadArena::Interned copy = arena.intern(other);
      EXPECT_NE(copy.bytes.data(), first.bytes.data()) << len << "@" << pos;
      EXPECT_TRUE(std::ranges::equal(copy.bytes, other)) << len << "@" << pos;
      EXPECT_EQ(copy.digest, fnv1a64(other)) << len << "@" << pos;
      EXPECT_NE(copy.digest, first.digest) << len << "@" << pos;
      EXPECT_EQ(arena.intern(other).bytes.data(), copy.bytes.data()) << len << "@" << pos;
    }
    // Growing the table and the blocks moved no earlier copy.
    EXPECT_TRUE(std::ranges::equal(first.bytes, base)) << len;
    EXPECT_EQ(arena.intern(base).bytes.data(), first.bytes.data()) << len;
  }
}

}  // namespace
}  // namespace bsm::net

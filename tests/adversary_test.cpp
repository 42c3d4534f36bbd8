// Tests for the adversary toolbox itself: strategies behave as specified,
// shims filter correctly, and split-brain keeps its two worlds apart.
#include <gtest/gtest.h>

#include "adversary/shims.hpp"
#include "adversary/strategies.hpp"
#include "net/engine.hpp"

namespace bsm::adversary {
namespace {

/// Echoes a fixed payload to one peer each round; records all inbox bytes.
class Beacon final : public net::Process {
 public:
  Beacon(PartyId peer, Bytes payload) : peer_(peer), payload_(std::move(payload)) {}

  void on_round(net::Context& ctx, net::Inbox inbox) override {
    ctx.send(peer_, payload_);
    for (const auto& env : inbox) heard_.emplace_back(env.payload.begin(), env.payload.end());
  }

  std::vector<Bytes> heard_;

 private:
  PartyId peer_;
  Bytes payload_;
};

TEST(Strategies, SilentSendsNothing) {
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 1), 1);
  engine.set_corrupt(0, std::make_unique<Silent>());
  engine.set_process(1, std::make_unique<Beacon>(0, Bytes{1}));
  engine.run_guarded(4);
  EXPECT_TRUE(dynamic_cast<Beacon&>(engine.process(1)).heard_.empty());
}

TEST(Strategies, CrashAtStopsMidway) {
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 1), 1);
  engine.set_corrupt(0, std::make_unique<CrashAt>(2, std::make_unique<Beacon>(1, Bytes{7})));
  engine.set_process(1, std::make_unique<Beacon>(0, Bytes{1}));
  engine.run_guarded(6);
  // Sends at rounds 0 and 1 only -> two deliveries.
  EXPECT_EQ(dynamic_cast<Beacon&>(engine.process(1)).heard_.size(), 2U);
}

TEST(Strategies, RandomNoiseIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 1), 1);
    engine.set_corrupt(0, std::make_unique<RandomNoise>(seed, 2));
    engine.set_process(1, std::make_unique<Beacon>(0, Bytes{1}));
    engine.run_guarded(4);
    return engine.view_hash(1);
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST(Strategies, ReplayerEchoesTraffic) {
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 1), 1);
  engine.set_process(0, std::make_unique<Beacon>(1, Bytes{9}));
  engine.set_corrupt(1, std::make_unique<Replayer>());
  engine.run_guarded(4);
  const auto& heard = dynamic_cast<Beacon&>(engine.process(0)).heard_;
  ASSERT_FALSE(heard.empty());
  EXPECT_EQ(heard.front(), Bytes{9});
}

TEST(Shims, SendFilteredDropsSelectedTraffic) {
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  auto inner = std::make_unique<Beacon>(1, Bytes{5});
  engine.set_corrupt(0, std::make_unique<SendFiltered>(
                            std::move(inner), [](PartyId to, ByteView) { return to != 1; }));
  for (PartyId id = 1; id < 4; ++id) {
    engine.set_process(id, std::make_unique<Beacon>(2, Bytes{std::uint8_t(id)}));
  }
  engine.run_guarded(3);
  EXPECT_TRUE(dynamic_cast<Beacon&>(engine.process(1)).heard_.empty());
}

/// Multicasts one payload a round to a fixed recipient list.
class Multicaster final : public net::Process {
 public:
  explicit Multicaster(std::vector<PartyId> to) : to_(std::move(to)) {}

  void on_round(net::Context& ctx, net::Inbox) override {
    ctx.multicast(to_, Bytes{static_cast<std::uint8_t>(ctx.self()), 1, 2});
  }

 private:
  std::vector<PartyId> to_;
};

TEST(Shims, FilteredMulticastKeepsTheParentTranscript) {
  // FilteringContext keeps Context's default multicast, a loop of its own
  // filtered send(). A pass-through filter must leave every view hash and
  // the traffic totals exactly as the engine's batched multicast makes
  // them, and a filter that drops one recipient must match a multicast
  // that never named it.
  const auto run = [](std::vector<PartyId> to, bool shimmed, PartyId dropped) {
    net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
    for (PartyId id = 0; id < 4; ++id) {
      auto inner = std::make_unique<Multicaster>(to);
      if (shimmed) {
        engine.set_process(id, std::make_unique<SendFiltered>(
                                   std::move(inner),
                                   [dropped](PartyId p, ByteView) { return p != dropped; }));
      } else {
        engine.set_process(id, std::move(inner));
      }
    }
    engine.run_guarded(3);
    std::vector<std::uint64_t> views;
    for (PartyId id = 0; id < 4; ++id) views.push_back(engine.view_hash(id));
    return std::make_pair(std::move(views), engine.stats());
  };
  EXPECT_EQ(run({3, 1, 1, 0, 2}, true, kNobody), run({3, 1, 1, 0, 2}, false, kNobody));
  EXPECT_EQ(run({3, 1, 1, 0, 2}, true, 1), run({3, 0, 2}, false, kNobody));
  EXPECT_NE(run({3, 1, 1, 0, 2}, true, 1), run({3, 1, 1, 0, 2}, false, kNobody));
}

TEST(Shims, SplitBrainSeparatesWorlds) {
  // Byzantine party 0 runs two beacons with different payloads; group 0 =
  // {1}, group 1 = {2, 3}. Each group must hear only its world's payload.
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  engine.set_corrupt(0, std::make_unique<SplitBrain>(
                            std::make_unique<Beacon>(1, Bytes{10}),
                            std::make_unique<Beacon>(2, Bytes{20}),
                            [](PartyId p) { return p == 1 ? 0 : 1; }));
  for (PartyId id = 1; id < 4; ++id) {
    engine.set_process(id, std::make_unique<Beacon>(0, Bytes{std::uint8_t(id)}));
  }
  engine.run_guarded(4);
  for (const auto& payload : dynamic_cast<Beacon&>(engine.process(1)).heard_) {
    EXPECT_EQ(payload, Bytes{10});
  }
  for (const auto& payload : dynamic_cast<Beacon&>(engine.process(2)).heard_) {
    EXPECT_EQ(payload, Bytes{20});
  }
  EXPECT_FALSE(dynamic_cast<Beacon&>(engine.process(1)).heard_.empty());
  EXPECT_FALSE(dynamic_cast<Beacon&>(engine.process(2)).heard_.empty());
}

TEST(Shims, SplitBrainRoutesInboxByGroup) {
  // World 0's instance must only hear from group 0.
  class Recorder final : public net::Process {
   public:
    void on_round(net::Context&, net::Inbox inbox) override {
      for (const auto& env : inbox) senders_.push_back(env.from);
    }
    std::vector<PartyId> senders_;
  };
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  auto rec0 = std::make_unique<Recorder>();
  auto* rec0_ptr = rec0.get();
  auto rec1 = std::make_unique<Recorder>();
  auto* rec1_ptr = rec1.get();
  engine.set_corrupt(0, std::make_unique<SplitBrain>(std::move(rec0), std::move(rec1),
                                                     [](PartyId p) { return p == 1 ? 0 : 1; }));
  for (PartyId id = 1; id < 4; ++id) {
    engine.set_process(id, std::make_unique<Beacon>(0, Bytes{std::uint8_t(id)}));
  }
  engine.run_guarded(3);
  for (PartyId from : rec0_ptr->senders_) EXPECT_EQ(from, 1U);
  for (PartyId from : rec1_ptr->senders_) EXPECT_NE(from, 1U);
  EXPECT_FALSE(rec0_ptr->senders_.empty());
  EXPECT_FALSE(rec1_ptr->senders_.empty());
}

TEST(Shims, ConspiratorTrafficCarriesWorldTags) {
  // Two conspirators exchange world-tagged traffic: world 0 instances talk
  // to each other, world 1 instances likewise, with no cross-talk.
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  auto make_split = [](PartyId peer, std::uint8_t w0, std::uint8_t w1) {
    return std::make_unique<SplitBrain>(std::make_unique<Beacon>(peer, Bytes{w0}),
                                        std::make_unique<Beacon>(peer, Bytes{w1}),
                                        [](PartyId) { return 0; }, std::set<PartyId>{0, 1});
  };
  engine.set_corrupt(0, make_split(1, 100, 101));
  engine.set_corrupt(1, make_split(0, 200, 201));
  engine.set_process(2, std::make_unique<Silent>());
  engine.set_process(3, std::make_unique<Silent>());
  EXPECT_NO_THROW(engine.run_guarded(4));
  // The worlds stay consistent: nothing observable from outside, but the
  // run must not crash and honest parties hear nothing.
}

TEST(Shims, SplitBrainSelfSendsStayInWorld) {
  // A process that self-sends and counts its own echoes: each world must
  // see exactly its own self-traffic.
  class SelfCounter final : public net::Process {
   public:
    explicit SelfCounter(std::uint8_t tag) : tag_(tag) {}
    void on_round(net::Context& ctx, net::Inbox inbox) override {
      ctx.send(ctx.self(), Bytes{tag_});
      for (const auto& env : inbox) {
        const Bytes payload(env.payload.begin(), env.payload.end());
        ASSERT_EQ(payload, Bytes{tag_});  // never the other world's tag
        ++echoes_;
      }
    }
    std::uint8_t tag_;
    int echoes_ = 0;
  };
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 1), 1);
  auto c0 = std::make_unique<SelfCounter>(1);
  auto* c0_ptr = c0.get();
  auto c1 = std::make_unique<SelfCounter>(2);
  auto* c1_ptr = c1.get();
  engine.set_corrupt(0, std::make_unique<SplitBrain>(std::move(c0), std::move(c1),
                                                     [](PartyId) { return 0; }));
  engine.set_process(1, std::make_unique<Silent>());
  engine.run_guarded(5);
  EXPECT_EQ(c0_ptr->echoes_, 4);
  EXPECT_EQ(c1_ptr->echoes_, 4);
}

}  // namespace
}  // namespace bsm::adversary

// Additional edge coverage for the engine and relay layer: hostile frame
// variants, timing-window boundaries, conflicting majority votes, and
// engine bookkeeping.
#include <gtest/gtest.h>

#include "adversary/strategies.hpp"
#include "common/codec.hpp"
#include "net/engine.hpp"
#include "net/relay.hpp"

namespace bsm::net {
namespace {

/// A delivered application message, kept past its round: AppMsg bodies
/// view the round's payload arena, so a recorder copies the bytes.
struct Delivered {
  PartyId from;
  Bytes body;
};

class Collector final : public Process {
 public:
  explicit Collector(RelayMode mode) : router_(mode) {}
  void on_round(Context& ctx, Inbox inbox) override {
    for (const AppMsg& m : router_.route(ctx, inbox)) {
      delivered_.push_back({m.from, Bytes(m.body.begin(), m.body.end())});
    }
  }
  std::vector<Delivered> delivered_;
  RelayRouter router_;
};

class RawSender final : public Process {
 public:
  RawSender(Round when, PartyId to, Bytes frame) : when_(when), to_(to), frame_(std::move(frame)) {}
  void on_round(Context& ctx, Inbox) override {
    if (ctx.round() == when_) ctx.send(to_, frame_);
  }

 private:
  Round when_;
  PartyId to_;
  Bytes frame_;
};

/// One-sided k = 2 fixture with a Collector at L1 and raw injectors.
struct Fixture {
  Fixture() : engine(Topology(TopologyKind::OneSided, 2), 1) {
    engine.set_process(0, std::make_unique<adversary::Silent>());
    engine.set_process(1, std::make_unique<Collector>(RelayMode::UnauthMajority));
    engine.set_process(2, std::make_unique<adversary::Silent>());
    engine.set_process(3, std::make_unique<adversary::Silent>());
  }
  Engine engine;
  [[nodiscard]] Collector& collector() { return dynamic_cast<Collector&>(engine.process(1)); }
};

[[nodiscard]] Bytes fwd_frame(PartyId src, PartyId dst, std::uint64_t id, Round tau,
                              const Bytes& body) {
  Writer w;
  w.u8(2);  // RelayFwd
  w.u32(src);
  w.u32(dst);
  w.u64(id);
  w.u32(tau);
  w.bytes(body);
  return w.take();
}

TEST(RelayEdge, ConflictingMajorityVotesNeverBothAccepted) {
  // Two relays vouch for different bodies under the same (src, id): with
  // k = 2 a strict majority needs both, so *neither* body is delivered.
  Fixture f;
  f.engine.set_corrupt(2, std::make_unique<RawSender>(0, 1, fwd_frame(0, 1, 5, 0, {1})));
  f.engine.set_corrupt(3, std::make_unique<RawSender>(0, 1, fwd_frame(0, 1, 5, 0, {2})));
  f.engine.run_guarded(3);
  EXPECT_TRUE(f.collector().delivered_.empty());
}

TEST(RelayEdge, AgreeingMajorityVotesAcceptOnce) {
  Fixture f;
  f.engine.set_corrupt(2, std::make_unique<RawSender>(0, 1, fwd_frame(0, 1, 5, 0, {9})));
  f.engine.set_corrupt(3, std::make_unique<RawSender>(0, 1, fwd_frame(0, 1, 5, 0, {9})));
  f.engine.run_guarded(3);
  ASSERT_EQ(f.collector().delivered_.size(), 1U);
  EXPECT_EQ(f.collector().delivered_[0].from, 0U);
  EXPECT_EQ(f.collector().delivered_[0].body, Bytes{9});
}

TEST(RelayEdge, DuplicateVotesFromOneRelayCountOnce) {
  // The same relay voting twice must not fake a majority.
  Fixture f;
  class DoubleVoter final : public Process {
   public:
    void on_round(Context& ctx, Inbox) override {
      if (ctx.round() > 1) return;
      ctx.send(1, fwd_frame(0, 1, 5, 0, {7}));
      ctx.send(1, fwd_frame(0, 1, 5, 0, {7}));
    }
  };
  f.engine.set_corrupt(2, std::make_unique<DoubleVoter>());
  f.engine.run_guarded(4);
  EXPECT_TRUE(f.collector().delivered_.empty());
}

TEST(RelayEdge, ForwardAddressedToSomeoneElseIgnored) {
  Fixture f;
  f.engine.set_corrupt(2, std::make_unique<RawSender>(0, 1, fwd_frame(0, 0, 5, 0, {9})));
  f.engine.set_corrupt(3, std::make_unique<RawSender>(0, 1, fwd_frame(0, 0, 5, 0, {9})));
  f.engine.run_guarded(3);
  EXPECT_TRUE(f.collector().delivered_.empty());
  EXPECT_GE(f.collector().router_.rejected(), 2U);
}

TEST(RelayEdge, TimedWindowBoundaryIsInclusive) {
  // A timed forward arriving exactly at tau + 2 is accepted; tau + 3 is
  // not. Drive the receiver directly with crafted signed frames.
  Engine engine(Topology(TopologyKind::OneSided, 2), 1);
  engine.set_process(0, std::make_unique<adversary::Silent>());
  engine.set_process(1, std::make_unique<Collector>(RelayMode::AuthTimed));
  engine.set_process(3, std::make_unique<adversary::Silent>());

  // Craft the signed content exactly as RelayRouter does.
  const Bytes body{4, 2};
  auto signed_content = [&](PartyId src, PartyId dst, std::uint64_t id, Round tau) {
    Writer w;
    w.str("relay");
    w.u32(src);
    w.u32(dst);
    w.u64(id);
    w.u32(tau);
    w.bytes(body);
    return w.take();
  };
  auto make_frame = [&](std::uint64_t id, Round tau) {
    Writer w;
    w.u8(2);
    w.u32(0);
    w.u32(1);
    w.u64(id);
    w.u32(tau);
    w.bytes(body);
    engine.pki().signer_for(0).sign(signed_content(0, 1, id, tau)).encode(w);
    return w.take();
  };
  // Relay 2 sends: at round 2 a frame stamped tau=0 (arrives round 3 =
  // tau+3: late) and at round 1 a frame stamped tau=0 (arrives round 2 =
  // tau+2: on time).
  class TwoSends final : public Process {
   public:
    TwoSends(Bytes on_time, Bytes late) : on_time_(std::move(on_time)), late_(std::move(late)) {}
    void on_round(Context& ctx, Inbox) override {
      if (ctx.round() == 1) ctx.send(1, on_time_);
      if (ctx.round() == 2) ctx.send(1, late_);
    }
    Bytes on_time_, late_;
  };
  engine.set_corrupt(2, std::make_unique<TwoSends>(make_frame(1, 0), make_frame(2, 0)));
  engine.run_guarded(5);
  auto& collector = dynamic_cast<Collector&>(engine.process(1));
  ASSERT_EQ(collector.delivered_.size(), 1U);  // only the tau+2 arrival
  EXPECT_GE(collector.router_.rejected(), 1U);
}

TEST(RelayEdge, SelfSendUsesDirectFrame) {
  Engine engine(Topology(TopologyKind::OneSided, 2), 1);
  class SelfTalker final : public Process {
   public:
    SelfTalker() : router_(RelayMode::UnauthMajority) {}
    void on_round(Context& ctx, Inbox inbox) override {
      for (const AppMsg& m : router_.route(ctx, inbox)) heard_.push_back(m.from);
      if (ctx.round() == 0) router_.send(ctx, ctx.self(), Bytes{1, 2});
    }
    RelayRouter router_;
    std::vector<PartyId> heard_;  ///< senders of the messages heard
  };
  engine.set_process(0, std::make_unique<SelfTalker>());
  for (PartyId id = 1; id < 4; ++id) engine.set_process(id, std::make_unique<adversary::Silent>());
  engine.run_guarded(2);
  const auto& talker = dynamic_cast<SelfTalker&>(engine.process(0));
  ASSERT_EQ(talker.heard_.size(), 1U);
  EXPECT_EQ(talker.heard_[0], 0U);
}

TEST(EngineEdge, AccessorsValidateIds) {
  Engine engine(Topology(TopologyKind::FullyConnected, 1), 1);
  EXPECT_THROW(engine.set_process(5, std::make_unique<adversary::Silent>()), std::logic_error);
  EXPECT_THROW((void)engine.is_corrupt(5), std::logic_error);
  EXPECT_THROW((void)engine.view_hash(9), std::logic_error);
  EXPECT_THROW((void)engine.process(0), std::logic_error);  // none installed
}

TEST(EngineEdge, PartiesWithoutProcessesAreSkipped) {
  Engine engine(Topology(TopologyKind::FullyConnected, 1), 1);
  engine.set_process(0, std::make_unique<adversary::Silent>());
  EXPECT_NO_THROW(engine.run_guarded(3));  // party 1 has no process: inert
  EXPECT_EQ(engine.current_round(), 3U);
}

TEST(EngineEdge, CorruptionScheduledBeforeRunZeroActsFromStart) {
  Engine engine(Topology(TopologyKind::FullyConnected, 1), 1);
  class Chatty final : public Process {
   public:
    void on_round(Context& ctx, Inbox) override { ctx.send(1, Bytes{1}); }
  };
  engine.set_process(0, std::make_unique<Chatty>());
  class Count final : public Process {
   public:
    void on_round(Context&, Inbox inbox) override {
      count_ += inbox.size();
    }
    std::size_t count_ = 0;
  };
  engine.set_process(1, std::make_unique<Count>());
  engine.schedule_corruption(0, 0, std::make_unique<adversary::Silent>());
  engine.run_guarded(4);
  EXPECT_TRUE(engine.is_corrupt(0));
  EXPECT_EQ(dynamic_cast<Count&>(engine.process(1)).count_, 0U);
}

TEST(EngineEdge, ViewHashAdvancesEvenOnSilentRounds) {
  // The digest folds round numbers, so "nothing arrived in round r" is
  // itself observable — necessary for omission indistinguishability.
  Engine engine(Topology(TopologyKind::FullyConnected, 1), 1);
  engine.set_process(0, std::make_unique<adversary::Silent>());
  engine.set_process(1, std::make_unique<adversary::Silent>());
  const auto h0 = engine.view_hash(0);
  engine.run_guarded(1);
  const auto h1 = engine.view_hash(0);
  engine.run_guarded(1);
  EXPECT_NE(h0, h1);
  EXPECT_NE(h1, engine.view_hash(0));
}

}  // namespace
}  // namespace bsm::net

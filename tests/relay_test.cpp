// Tests for the virtual-channel relay layer (Lemmas 6, 8, 10): delivery
// through honest relays, majority voting against garbling relays, signature
// rejection, replay protection, and the 2-Delta timing window.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/codec.hpp"
#include "common/hash.hpp"
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

/// Owns a RelayRouter; performs scripted sends and records deliveries, and
/// (being a router user) does forwarding duty for everyone else.
class RelayUser final : public Process {
 public:
  struct ScriptedSend {
    Round round;
    PartyId to;
    Bytes body;
  };

  RelayUser(RelayMode mode, std::vector<ScriptedSend> script)
      : router_(mode), script_(std::move(script)) {}

  void on_round(Context& ctx, Inbox inbox) override {
    for (const AppMsg& msg : router_.route(ctx, inbox)) {
      delivered_.push_back({msg.from, Bytes(msg.body.begin(), msg.body.end())});
    }
    for (const auto& s : script_) {
      if (s.round == ctx.round()) router_.send(ctx, s.to, s.body);
    }
  }

  [[nodiscard]] const std::vector<Delivered>& delivered() const { return delivered_; }
  [[nodiscard]] const RelayRouter& router() const { return router_; }

 private:
  RelayRouter router_;
  std::vector<ScriptedSend> script_;
  std::vector<Delivered> delivered_;
};

/// Byzantine relay: behaves like an honest router user, except every
/// outgoing forward passes through `garble` first (by default one body
/// byte is flipped: content garbling).
class GarblingRelay final : public Process {
 public:
  using Garble = std::function<void(Bytes&)>;

  explicit GarblingRelay(RelayMode mode, Garble garble = flip_last_byte)
      : router_(mode), garble_(std::move(garble)) {}

  void on_round(Context& ctx, Inbox inbox) override {
    struct Shim final : Context {
      Shim(Context& base, const Garble& garble) : base_(&base), garble_(&garble) {}
      void send(PartyId to, ByteView payload) override {
        Bytes mutated(payload.begin(), payload.end());
        (*garble_)(mutated);
        base_->send(to, mutated);
      }
      [[nodiscard]] Round round() const override { return base_->round(); }
      [[nodiscard]] PartyId self() const override { return base_->self(); }
      [[nodiscard]] const Topology& topology() const override { return base_->topology(); }
      [[nodiscard]] const crypto::Signer& signer() const override { return base_->signer(); }
      [[nodiscard]] const crypto::Pki& pki() const override { return base_->pki(); }
      Context* base_;
      const Garble* garble_;
    } shim(ctx, garble_);
    (void)router_.route(shim, inbox);
  }

 private:
  static void flip_last_byte(Bytes& frame) {
    if (!frame.empty()) frame.back() ^= 0x01;
  }

  RelayRouter router_;
  Garble garble_;
};

/// Byzantine relay that buffers its inbox and performs its forwarding duty
/// `delay` rounds late (for the Lemma 10 timing window).
class DelayingRelay final : public Process {
 public:
  DelayingRelay(RelayMode mode, Round delay) : router_(mode), delay_(delay) {}

  void on_round(Context& ctx, Inbox inbox) override {
    // The inbox slice and its payload views only live for this round; a
    // delaying relay copies the envelopes and their bytes, and points the
    // envelopes at its copies when it replays them.
    auto& held = buffer_.emplace_back();
    for (const Envelope& env : inbox) {
      held.emplace_back(env, Bytes(env.payload.begin(), env.payload.end()));
    }
    if (buffer_.size() > delay_) {
      std::vector<Envelope> replay;
      for (auto& [env, bytes] : buffer_.front()) {
        env.payload = bytes;
        replay.push_back(env);
      }
      (void)router_.route(ctx, replay);
      buffer_.erase(buffer_.begin());
    }
  }

 private:
  RelayRouter router_;
  Round delay_;
  std::vector<std::vector<std::pair<Envelope, Bytes>>> buffer_;
};

class SilentProcess final : public Process {
 public:
  void on_round(Context&, Inbox) override {}
};

/// One-sided market of size k: L parties are RelayUsers, R parties are the
/// relays (honest RelayUsers by default; overridable per id).
struct Fixture {
  explicit Fixture(std::uint32_t k, RelayMode mode)
      : engine(Topology(TopologyKind::OneSided, k), /*pki_seed=*/1), mode_(mode) {
    for (PartyId id = 0; id < 2 * k; ++id) {
      engine.set_process(id, std::make_unique<RelayUser>(mode, std::vector<RelayUser::ScriptedSend>{}));
    }
  }

  void script(PartyId id, std::vector<RelayUser::ScriptedSend> sends) {
    engine.set_process(id, std::make_unique<RelayUser>(mode_, std::move(sends)));
  }

  [[nodiscard]] const RelayUser& user(PartyId id) {
    return dynamic_cast<const RelayUser&>(engine.process(id));
  }

  Engine engine;
  RelayMode mode_;
};

/// A router user that, at round 0, sends one body to a recipient list
/// through RelayRouter::broadcast or a loop of RelayRouter::send, and
/// records the sender and frame tag of every physical envelope it hears.
class ListSender final : public Process {
 public:
  ListSender(RelayMode mode, std::vector<PartyId> to, bool batched)
      : router_(mode), to_(std::move(to)), batched_(batched) {}

  void on_round(Context& ctx, Inbox inbox) override {
    for (const Envelope& env : inbox) frames_.emplace_back(env.from, env.payload[0]);
    for (const AppMsg& msg : router_.route(ctx, inbox)) {
      delivered_.push_back({msg.from, Bytes(msg.body.begin(), msg.body.end())});
    }
    if (ctx.round() != 0) return;
    if (batched_) {
      router_.broadcast(ctx, to_, body_);
    } else {
      for (PartyId p : to_) router_.send(ctx, p, body_);
    }
  }

  std::vector<std::pair<PartyId, std::uint8_t>> frames_;  ///< (sender, frame tag)
  std::vector<Delivered> delivered_;

 private:
  RelayRouter router_;
  std::vector<PartyId> to_;
  bool batched_;
  Bytes body_{4, 5, 6};
};

TEST(Relay, MixedBroadcastKeepsSendOrder) {
  // One-sided k = 2: L = {0, 1} share no channel and R = {2, 3} relay for
  // them. Party 0 broadcasts to 2 (direct), 1 (a relay request to 2 and
  // 3) and 3 (direct), so the direct runs [2] and [3] are two multicasts
  // around the request. Relay 2 must hear the direct frame before the
  // request, relay 3 the request before the direct frame, and the whole
  // run must match a loop of send() byte for byte.
  const auto run = [](bool batched) {
    auto engine = std::make_unique<Engine>(Topology(TopologyKind::OneSided, 2), 1);
    for (PartyId id = 0; id < 4; ++id) {
      engine->set_process(id, std::make_unique<ListSender>(
                                  RelayMode::UnauthMajority,
                                  id == 0 ? std::vector<PartyId>{2, 1, 3} : std::vector<PartyId>{},
                                  batched));
    }
    engine->run_guarded(3);
    return engine;
  };
  const auto engine = run(true);
  const auto looped = run(false);
  for (PartyId id = 0; id < 4; ++id) EXPECT_EQ(engine->view_hash(id), looped->view_hash(id)) << id;
  EXPECT_EQ(engine->stats(), looped->stats());

  const auto& relay2 = dynamic_cast<const ListSender&>(engine->process(2));
  const auto& relay3 = dynamic_cast<const ListSender&>(engine->process(3));
  const auto& target = dynamic_cast<const ListSender&>(engine->process(1));
  using Frames = std::vector<std::pair<PartyId, std::uint8_t>>;
  EXPECT_EQ(relay2.frames_, (Frames{{0, 0}, {0, 1}}));  // direct, then request
  EXPECT_EQ(relay3.frames_, (Frames{{0, 1}, {0, 0}}));  // request, then direct
  EXPECT_EQ(target.frames_, (Frames{{2, 2}, {3, 2}}));  // both forwards
  ASSERT_EQ(target.delivered_.size(), 1U);
  EXPECT_EQ(target.delivered_[0].from, 0U);
  EXPECT_EQ(target.delivered_[0].body, (Bytes{4, 5, 6}));
  EXPECT_EQ(relay2.delivered_.size(), 1U);
  EXPECT_EQ(relay3.delivered_.size(), 1U);
}

TEST(Relay, DirectCrossSideDelivery) {
  Fixture f(2, RelayMode::Direct);
  f.script(0, {{0, 2, Bytes{1, 2, 3}}});
  f.engine.run_guarded(2);
  ASSERT_EQ(f.user(2).delivered().size(), 1U);
  EXPECT_EQ(f.user(2).delivered()[0].from, 0U);
  EXPECT_EQ(f.user(2).delivered()[0].body, (Bytes{1, 2, 3}));
}

TEST(Relay, DirectRefusesVirtualChannels) {
  Fixture f(2, RelayMode::Direct);
  f.script(0, {{0, 1, Bytes{1}}});  // L-L without relaying enabled
  EXPECT_THROW(f.engine.run_guarded(1), std::logic_error);
}

TEST(Relay, MajorityDeliversInTwoRounds) {
  Fixture f(2, RelayMode::UnauthMajority);
  f.script(0, {{0, 1, Bytes{5, 6}}});
  f.engine.run_guarded(2);
  EXPECT_TRUE(f.user(1).delivered().empty());  // not yet: 2 * Delta
  f.engine.run_guarded(1);
  ASSERT_EQ(f.user(1).delivered().size(), 1U);
  EXPECT_EQ(f.user(1).delivered()[0].from, 0U);
  EXPECT_EQ(f.user(1).delivered()[0].body, (Bytes{5, 6}));
}

TEST(Relay, MajoritySurvivesOneGarblingRelayOfThree) {
  Fixture f(3, RelayMode::UnauthMajority);
  f.script(0, {{0, 1, Bytes{9}}});
  f.engine.set_corrupt(3, std::make_unique<GarblingRelay>(RelayMode::UnauthMajority));
  f.engine.run_guarded(4);
  ASSERT_EQ(f.user(1).delivered().size(), 1U);
  EXPECT_EQ(f.user(1).delivered()[0].body, (Bytes{9}));
}

TEST(Relay, MajorityIsNotFooledByADigestCollision) {
  // A and B differ but share fnv1a64 = 5e4c31ff7ee36845. Byzantine relay 3
  // forwards honestly except that it swaps A for B; it forwards first, so
  // a vote keyed by digest would credit B with the honest relays' votes.
  const Bytes a{0xd6, 0x4f, 0xdb, 0x5d, 0x81, 0xa4, 0x3a, 0x00};
  const Bytes b{0x7f, 0x79, 0xe3, 0xd5, 0x6b, 0x8d, 0x2d, 0x4f};
  ASSERT_NE(a, b);
  ASSERT_EQ(fnv1a64(a), fnv1a64(b));
  auto swap_a_for_b = [&](Bytes& frame) {
    // An unsigned forward ends with its body.
    if (frame.size() < a.size()) return;
    const auto body = frame.end() - static_cast<std::ptrdiff_t>(a.size());
    if (std::equal(a.begin(), a.end(), body)) std::copy(b.begin(), b.end(), body);
  };
  Fixture f(3, RelayMode::UnauthMajority);
  f.script(0, {{0, 1, a}});
  f.engine.set_corrupt(3, std::make_unique<GarblingRelay>(RelayMode::UnauthMajority, swap_a_for_b));
  f.engine.run_guarded(4);
  ASSERT_EQ(f.user(1).delivered().size(), 1U);
  EXPECT_EQ(f.user(1).delivered()[0].from, 0U);
  EXPECT_EQ(f.user(1).delivered()[0].body, a);
}

TEST(Relay, MajorityVotesSplitAcrossRoundsAcceptOnce) {
  // k = 3: a majority needs two of the three relays. The honest relay's
  // forward arrives in round 2, the delayed relay's in round 3, and the
  // silent relay never votes, so the (src, id) stays pending across a
  // round boundary. The first vote's candidate must own its bytes: the
  // round-2 payload arena is recycled before the second vote compares
  // against it.
  const Bytes body{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90};
  Fixture f(3, RelayMode::UnauthMajority);
  f.script(0, {{0, 1, body}});
  f.engine.set_corrupt(4, std::make_unique<DelayingRelay>(RelayMode::UnauthMajority, 1));
  f.engine.set_corrupt(5, std::make_unique<SilentProcess>());
  f.engine.run_guarded(3);
  EXPECT_TRUE(f.user(1).delivered().empty()) << "one vote of three is no majority";
  f.engine.run_guarded(1);
  ASSERT_EQ(f.user(1).delivered().size(), 1U);
  EXPECT_EQ(f.user(1).delivered()[0].from, 0U);
  EXPECT_EQ(f.user(1).delivered()[0].body, body);
  f.engine.run_guarded(4);
  EXPECT_EQ(f.user(1).delivered().size(), 1U) << "accepted exactly once";
}

TEST(Relay, MajorityFailsWithoutHonestMajority) {
  // k = 2: strict majority needs both relays; one silent byzantine relay
  // starves the channel (exactly why Theorem 4 requires tR < k/2).
  Fixture f(2, RelayMode::UnauthMajority);
  f.script(0, {{0, 1, Bytes{9}}});
  f.engine.set_corrupt(2, std::make_unique<SilentProcess>());
  f.engine.run_guarded(6);
  EXPECT_TRUE(f.user(1).delivered().empty());
}

TEST(Relay, MajorityRejectsSpoofedSource) {
  // A single byzantine relay fabricates a forward claiming src = 0; with
  // k = 3 the strict majority (2) is never reached.
  Fixture f(3, RelayMode::UnauthMajority);
  Writer w;
  w.u8(2);             // RelayFwd
  w.u32(0);            // claimed src
  w.u32(1);            // dst
  w.u64(77);           // id
  w.u32(0);            // tau
  w.bytes(Bytes{66});  // body
  class RawSender final : public Process {
   public:
    explicit RawSender(Bytes frame) : frame_(std::move(frame)) {}
    void on_round(Context& ctx, Inbox) override {
      if (ctx.round() == 0) ctx.send(1, frame_);
    }
    Bytes frame_;
  };
  f.engine.set_corrupt(3, std::make_unique<RawSender>(w.data()));
  f.engine.run_guarded(4);
  EXPECT_TRUE(f.user(1).delivered().empty());
}

TEST(Relay, AuthDeliversWithSingleHonestRelay) {
  // k = 3, two of three relays silent-byzantine: Lemma 8 needs just one
  // honest forwarder.
  Fixture f(3, RelayMode::AuthSigned);
  f.script(0, {{0, 1, Bytes{1, 1}}});
  f.engine.set_corrupt(3, std::make_unique<SilentProcess>());
  f.engine.set_corrupt(4, std::make_unique<SilentProcess>());
  f.engine.run_guarded(4);
  ASSERT_EQ(f.user(1).delivered().size(), 1U);
  EXPECT_EQ(f.user(1).delivered()[0].from, 0U);
}

TEST(Relay, AuthRejectsGarbledContent) {
  // The only functioning relay garbles the body: signature verification
  // fails and nothing is delivered.
  Fixture f(2, RelayMode::AuthSigned);
  f.script(0, {{0, 1, Bytes{8}}});
  f.engine.set_corrupt(2, std::make_unique<GarblingRelay>(RelayMode::AuthSigned));
  f.engine.set_corrupt(3, std::make_unique<SilentProcess>());
  f.engine.run_guarded(5);
  EXPECT_TRUE(f.user(1).delivered().empty());
}

TEST(Relay, AuthAcceptsExactlyOncePerMessage) {
  // All three relays forward: the receiver must deduplicate on (src, id).
  Fixture f(3, RelayMode::AuthSigned);
  f.script(0, {{0, 1, Bytes{4}}, {0, 1, Bytes{4}}});
  f.engine.run_guarded(4);
  // Two scripted sends = two ids = two deliveries; not six.
  EXPECT_EQ(f.user(1).delivered().size(), 2U);
}

TEST(Relay, TimedAcceptsWithinWindow) {
  Fixture f(2, RelayMode::AuthTimed);
  f.script(0, {{0, 1, Bytes{3}}});
  f.engine.run_guarded(4);
  ASSERT_EQ(f.user(1).delivered().size(), 1U);
}

TEST(Relay, TimedRejectsLateForwards) {
  // Both relays byzantine: one silent, one forwarding 3 rounds late —
  // outside the 2 * Delta window, so the message is omitted, never late.
  Fixture f(2, RelayMode::AuthTimed);
  f.script(0, {{0, 1, Bytes{3}}});
  f.engine.set_corrupt(2, std::make_unique<DelayingRelay>(RelayMode::AuthTimed, 3));
  f.engine.set_corrupt(3, std::make_unique<SilentProcess>());
  f.engine.run_guarded(10);
  EXPECT_TRUE(f.user(1).delivered().empty());
}

TEST(Relay, TimedOmissionRequiresAllRelaysByzantine) {
  // One honest relay of two: delivery happens despite the delayer.
  Fixture f(2, RelayMode::AuthTimed);
  f.script(0, {{0, 1, Bytes{3}}});
  f.engine.set_corrupt(3, std::make_unique<DelayingRelay>(RelayMode::AuthTimed, 3));
  f.engine.run_guarded(10);
  ASSERT_EQ(f.user(1).delivered().size(), 1U);
}

TEST(Relay, MalformedFramesAreCountedNotFatal) {
  Fixture f(2, RelayMode::UnauthMajority);
  class Noise final : public Process {
   public:
    void on_round(Context& ctx, Inbox) override {
      if (ctx.round() == 0) ctx.send(0, Bytes{0xFF, 0xFF, 0xFF});
    }
  };
  f.engine.set_corrupt(2, std::make_unique<Noise>());
  EXPECT_NO_THROW(f.engine.run_guarded(3));
  EXPECT_GE(f.user(0).router().rejected(), 1U);
}

}  // namespace
}  // namespace bsm::net

// Edge cases of the broadcast stack: byzantine kings, forged Dolev-Strong
// chains, non-participant injection, hub plumbing, and degenerate
// parameters.
#include <gtest/gtest.h>

#include <set>

#include "adversary/shims.hpp"
#include "adversary/strategies.hpp"
#include "broadcast/bb_via_ba.hpp"
#include "broadcast/dolev_strong.hpp"
#include "broadcast/instance.hpp"
#include "broadcast/omission_ba.hpp"
#include "broadcast/phase_king.hpp"
#include "broadcast/quorums.hpp"
#include "broadcast/wire.hpp"
#include "common/codec.hpp"
#include "net/engine.hpp"

namespace bsm::broadcast {
namespace {

class Host final : public net::Process {
 public:
  Host(net::RelayMode relay, std::uint32_t stride, std::vector<PartyId> parts,
       std::unique_ptr<Instance> inst)
      : hub_(relay, stride) {
    hub_.add_instance(0, 0, std::move(parts), std::move(inst));
  }
  void on_round(net::Context& ctx, net::Inbox inbox) override {
    hub_.ingest(ctx, inbox);
    hub_.step_due(ctx);
  }
  [[nodiscard]] const Instance& instance() const { return hub_.instance(0); }

 private:
  InstanceHub hub_;
};

[[nodiscard]] Bytes val(std::uint8_t x) { return Bytes{x}; }

TEST(PhaseKingEdge, SilentByzantineKingsDoNotBlockAgreement) {
  // k = 4, t = 1: the phase-1 king (party 0) is silent-byzantine; phase 2's
  // king is honest and agreement must still conclude on schedule.
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  std::vector<PartyId> parts{0, 1, 2, 3};
  auto q = std::make_shared<const ThresholdQuorums>(4, 1);
  for (PartyId id : parts) {
    engine.set_process(id, std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                                  std::make_unique<PhaseKingBA>(
                                                      val(id % 2 ? 1 : 2), q)));
  }
  engine.set_corrupt(0, std::make_unique<adversary::Silent>());
  engine.run_guarded(3 * 2 + 2);
  std::set<Bytes> outputs;
  for (PartyId id : {1U, 2U, 3U}) {
    const auto& inst = dynamic_cast<Host&>(engine.process(id)).instance();
    ASSERT_TRUE(inst.done());
    outputs.insert(*inst.output());
  }
  EXPECT_EQ(outputs.size(), 1U);
}

TEST(PhaseKingEdge, EquivocatingKingCannotSplitStrongParties) {
  // All honest parties share the input: persistence makes them strong in
  // every phase, so even a split-brain king is ignored.
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  std::vector<PartyId> parts{0, 1, 2, 3};
  auto q = std::make_shared<const ThresholdQuorums>(4, 1);
  for (PartyId id : parts) {
    engine.set_process(id, std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                                  std::make_unique<PhaseKingBA>(val(9), q)));
  }
  engine.set_corrupt(
      0, std::make_unique<adversary::SplitBrain>(
             std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                    std::make_unique<PhaseKingBA>(val(1), q)),
             std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                    std::make_unique<PhaseKingBA>(val(2), q)),
             [](PartyId p) { return p < 2 ? 0 : 1; }));
  engine.run_guarded(3 * 2 + 2);
  for (PartyId id : {1U, 2U, 3U}) {
    const auto& inst = dynamic_cast<Host&>(engine.process(id)).instance();
    ASSERT_TRUE(inst.done());
    EXPECT_EQ(*inst.output(), val(9)) << "validity must survive the byzantine king";
  }
}

TEST(PhaseKingEdge, EmptyAndLargeValuesAreFirstClass) {
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  std::vector<PartyId> parts{0, 1, 2, 3};
  auto q = std::make_shared<const ThresholdQuorums>(4, 1);
  const Bytes big(300, 0xAB);
  for (PartyId id : parts) {
    engine.set_process(id, std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                                  std::make_unique<PhaseKingBA>(
                                                      id == 0 ? Bytes{} : big, q)));
  }
  engine.run_guarded(3 * 2 + 2);
  std::set<Bytes> outputs;
  for (PartyId id : parts) {
    const auto& inst = dynamic_cast<Host&>(engine.process(id)).instance();
    ASSERT_TRUE(inst.done());
    outputs.insert(*inst.output());
  }
  EXPECT_EQ(outputs.size(), 1U);
}

/// Injects a hand-crafted Dolev-Strong chain frame with a bogus signature.
class ChainForger final : public net::Process {
 public:
  void on_round(net::Context& ctx, net::Inbox) override {
    if (ctx.round() != 1) return;  // arrive at step >= 1 with 1 "signature"
    Writer chain;
    chain.u8(6);  // MsgKind::Chain
    chain.bytes(Bytes{66});
    chain.u32(1);
    chain.u32(0);                               // claimed signer: the sender
    crypto::Signature{0, 0xDEAD}.encode(chain);  // forged tag
    Writer frame;
    frame.u32(0);  // channel
    frame.bytes(chain.data());
    Writer direct;
    direct.u8(0);  // relay Direct tag
    direct.bytes(frame.data());
    for (PartyId p = 0; p < ctx.topology().n(); ++p) {
      if (p != ctx.self()) ctx.send(p, direct.data());
    }
  }
};

TEST(DolevStrongEdge, ForgedChainsAreRejected) {
  // Honest sender broadcasts 9; byzantine party 3 injects a forged chain
  // claiming the sender signed 66. Unforgeability keeps everyone on 9.
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  std::vector<PartyId> parts{0, 1, 2, 3};
  for (PartyId id : parts) {
    engine.set_process(id, std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                                  std::make_unique<DolevStrong>(
                                                      0, 1, id == 0 ? val(9) : Bytes{})));
  }
  engine.set_corrupt(3, std::make_unique<ChainForger>());
  engine.run_guarded(4);
  for (PartyId id : {1U, 2U}) {
    const auto& inst = dynamic_cast<Host&>(engine.process(id)).instance();
    ASSERT_TRUE(inst.done());
    ASSERT_TRUE(inst.output().has_value());
    EXPECT_EQ(*inst.output(), val(9));
  }
}

TEST(DolevStrongEdge, ZeroResilienceStillBroadcasts) {
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 1), 1);
  std::vector<PartyId> parts{0, 1};
  for (PartyId id : parts) {
    engine.set_process(id, std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                                  std::make_unique<DolevStrong>(
                                                      0, 0, id == 0 ? val(5) : Bytes{})));
  }
  engine.run_guarded(3);
  const auto& inst = dynamic_cast<Host&>(engine.process(1)).instance();
  ASSERT_TRUE(inst.done());
  EXPECT_EQ(*inst.output(), val(5));
}

TEST(HubEdge, NonParticipantTrafficIsFiltered) {
  // Party 3 is outside the participant set but floods the channel with
  // plausible VALUE frames: the hub must drop them before the instance.
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  std::vector<PartyId> parts{0, 1, 2};
  auto q = std::make_shared<const ThresholdQuorums>(3, 0);
  for (PartyId id : parts) {
    engine.set_process(id, std::make_unique<Host>(net::RelayMode::Direct, 1, parts,
                                                  std::make_unique<PhaseKingBA>(val(4), q)));
  }
  class ValueInjector final : public net::Process {
   public:
    void on_round(net::Context& ctx, net::Inbox) override {
      Writer kv;
      kv.u8(1);  // MsgKind::Value
      kv.bytes(Bytes{0xEE});
      Writer frame;
      frame.u32(0);
      frame.bytes(kv.data());
      Writer direct;
      direct.u8(0);
      direct.bytes(frame.data());
      for (PartyId p = 0; p < 3; ++p) ctx.send(p, direct.data());
    }
  };
  engine.set_corrupt(3, std::make_unique<ValueInjector>());
  engine.run_guarded(3 * 1 + 2);
  for (PartyId id : parts) {
    const auto& inst = dynamic_cast<Host&>(engine.process(id)).instance();
    ASSERT_TRUE(inst.done());
    EXPECT_EQ(*inst.output(), val(4)) << "outsider values must not count";
  }
}

TEST(HubEdge, DuplicateChannelsAndUnknownMailboxesThrow) {
  InstanceHub hub(net::RelayMode::Direct, 1);
  auto q = std::make_shared<const ThresholdQuorums>(2, 0);
  hub.add_instance(7, 0, {0, 1}, std::make_unique<PhaseKingBA>(Bytes{}, q));
  EXPECT_THROW(hub.add_instance(7, 0, {0, 1}, std::make_unique<PhaseKingBA>(Bytes{}, q)),
               std::logic_error);
  EXPECT_THROW(hub.add_mailbox(7), std::logic_error);
  hub.add_mailbox(8);
  EXPECT_THROW(hub.add_instance(8, 0, {0, 1}, std::make_unique<PhaseKingBA>(Bytes{}, q)),
               std::logic_error);
  EXPECT_THROW((void)hub.take_mailbox(9), std::logic_error);
  EXPECT_TRUE(hub.take_mailbox(8).empty());
  EXPECT_THROW((void)hub.instance(99), std::logic_error);
}

TEST(HubEdge, BufferedMessagesOutliveTheirRound) {
  // Stride 2, fully connected: party 0's step-0 broadcast is a direct frame
  // that arrives in round 1 and is stepped in round 2. By then the engine
  // has recycled the payload arena it arrived in, and party 0 — stepped
  // first — has already stored its step-1 broadcast, of the same length,
  // there. The hub must have kept a copy of the buffered message.
  class Echo final : public Instance {
   public:
    void step(InstanceIo& io, std::uint32_t s, const std::vector<net::AppMsg>& inbox) override {
      if (s == 1) {
        for (const auto& msg : inbox) {
          heard_.emplace_back(msg.from, Bytes(msg.body.begin(), msg.body.end()));
        }
      }
      if (io.self() == 0 && s < 2) io.broadcast(Bytes(32, static_cast<std::uint8_t>(0xA0 + s)));
      if (s == duration()) decide(std::nullopt);
    }
    [[nodiscard]] std::uint32_t duration() const override { return 2; }
    std::vector<std::pair<PartyId, Bytes>> heard_;
  };

  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  const std::vector<PartyId> parts{0, 1, 2, 3};
  for (PartyId id : parts) {
    engine.set_process(id, std::make_unique<Host>(net::RelayMode::Direct, 2, parts,
                                                  std::make_unique<Echo>()));
  }
  engine.run_guarded(3);
  for (PartyId id : parts) {
    const auto& host = dynamic_cast<const Host&>(engine.process(id));
    const auto& echo = dynamic_cast<const Echo&>(host.instance());
    ASSERT_EQ(echo.heard_.size(), 1U) << "party " << id;
    EXPECT_EQ(echo.heard_[0].first, 0U);
    EXPECT_EQ(echo.heard_[0].second, Bytes(32, 0xA0)) << "party " << id;
  }
}

TEST(HubEdge, RoundOfStepFollowsStride) {
  InstanceHub hub1(net::RelayMode::Direct, 1);
  EXPECT_EQ(hub1.round_of_step(0, 5), 5U);
  InstanceHub hub2(net::RelayMode::AuthTimed, 2);
  EXPECT_EQ(hub2.round_of_step(1, 5), 11U);
  EXPECT_THROW(InstanceHub(net::RelayMode::Direct, 0), std::logic_error);
}

TEST(BBviaBAEdge, FactoryDurationMismatchIsCaught) {
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 2), 1);
  std::vector<PartyId> parts{0, 1, 2, 3};
  auto q = std::make_shared<const ThresholdQuorums>(4, 1);
  auto bad = std::make_unique<BBviaBA>(
      0, val(1), val(0), /*claimed duration=*/99,
      [q](Bytes in) -> std::unique_ptr<Instance> {
        return std::make_unique<PhaseKingBA>(std::move(in), q);
      });
  engine.set_process(0, std::make_unique<Host>(net::RelayMode::Direct, 1, parts, std::move(bad)));
  for (PartyId id : {1U, 2U, 3U}) engine.set_process(id, std::make_unique<adversary::Silent>());
  EXPECT_THROW(engine.run_guarded(3), std::logic_error);
}

TEST(WireEdge, KvDecodingRejectsMalformedKinds) {
  Writer w;
  w.u8(0);  // invalid kind
  w.bytes(Bytes{1});
  EXPECT_FALSE(decode_kv(w.data()).has_value());
  Writer w2;
  w2.u8(1);
  w2.bytes(Bytes{1});
  w2.u8(0xFF);  // trailing byte
  EXPECT_FALSE(decode_kv(w2.data()).has_value());
  EXPECT_FALSE(decode_kv({}).has_value());
}

}  // namespace
}  // namespace bsm::broadcast

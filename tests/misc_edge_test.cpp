// Remaining edge coverage: Lemma 3 over relayed topologies, adversary
// wrapper corner cases, and generator invariants.
#include <gtest/gtest.h>

#include "adversary/shims.hpp"
#include "adversary/strategies.hpp"
#include "core/lemma3.hpp"
#include "core/oracle.hpp"
#include "core/properties.hpp"
#include "core/ssm.hpp"
#include "matching/generators.hpp"
#include "net/engine.hpp"

namespace bsm::core {
namespace {

TEST(Lemma3Misc, WorksOnOneSidedTopology) {
  // The reduction also runs over a one-sided network: group-internal L
  // traffic stays local; cross-group L traffic in the *big* protocol is
  // already relayed through R, so the small network's edges suffice.
  const BsmConfig big{net::TopologyKind::OneSided, false, 4, 0, 1};
  const auto proto = *resolve_protocol(big);
  const std::uint32_t d = 2;
  net::Engine engine(net::Topology(big.topology, d), 3);
  const auto inputs = matching::random_profile(d, 11);
  for (PartyId id = 0; id < 2 * d; ++id) {
    engine.set_process(
        id, std::make_unique<GroupSimulation>(big, proto, d, id, inputs.list(id), 9));
  }
  engine.run_guarded(proto.total_rounds + 2);
  std::vector<std::optional<PartyId>> decisions(2 * d);
  for (PartyId id = 0; id < 2 * d; ++id) {
    const auto& p = engine.process_as<BsmProcess>(id);
    if (p.decided()) decisions[id] = p.decision();
  }
  const auto report = check_ssm(d, std::vector<bool>(2 * d, false),
                                matching::favorites_of(inputs), decisions);
  EXPECT_TRUE(report.all()) << report.summary();
}

TEST(Lemma3Misc, SpoofedCrossGroupFramesAreDropped) {
  // A byzantine simulator claiming to relay a big party it does not own
  // must be ignored by honest simulators (the authenticated-channel check
  // inside GroupSimulation).
  const BsmConfig big{net::TopologyKind::FullyConnected, false, 4, 1, 0};
  const auto proto = *resolve_protocol(big);
  const std::uint32_t d = 2;
  net::Engine engine(net::Topology(big.topology, d), 3);
  const auto inputs = matching::random_profile(d, 21);
  for (PartyId id = 0; id < 2 * d; ++id) {
    engine.set_process(
        id, std::make_unique<GroupSimulation>(big, proto, d, id, inputs.list(id), 9));
  }
  // Byzantine small-left party 1 spams frames claiming to be big party 0
  // (owned by small party 0).
  class Spoofer final : public net::Process {
   public:
    void on_round(net::Context& ctx, net::Inbox) override {
      Writer w;
      w.u8(0xD3);
      w.u32(0);  // from_big: owned by small 0, not us
      w.u32(2);  // to_big
      w.bytes(Bytes{1, 2, 3});
      for (PartyId p = 0; p < 4; ++p) {
        if (p != ctx.self()) ctx.send(p, w.data());
      }
    }
  };
  engine.set_corrupt(1, std::make_unique<Spoofer>());
  engine.run_guarded(proto.total_rounds + 2);
  std::vector<std::optional<PartyId>> decisions(2 * d);
  std::vector<bool> corrupt(2 * d, false);
  corrupt[1] = true;
  for (PartyId id = 0; id < 2 * d; ++id) {
    if (corrupt[id]) continue;
    const auto& p = engine.process_as<BsmProcess>(id);
    if (p.decided()) decisions[id] = p.decision();
  }
  const auto report = check_ssm(d, corrupt, matching::favorites_of(inputs), decisions);
  EXPECT_TRUE(report.all()) << report.summary();
}

TEST(AdversaryMisc, CrashAtZeroIsSilent) {
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, 1), 1);
  class Chatty final : public net::Process {
   public:
    void on_round(net::Context& ctx, net::Inbox) override {
      ctx.send(1, Bytes{1});
    }
  };
  engine.set_corrupt(0, std::make_unique<adversary::CrashAt>(0, std::make_unique<Chatty>()));
  class Count final : public net::Process {
   public:
    void on_round(net::Context&, net::Inbox inbox) override {
      total_ += inbox.size();
    }
    std::size_t total_ = 0;
  };
  engine.set_process(1, std::make_unique<Count>());
  engine.run_guarded(3);
  EXPECT_EQ(dynamic_cast<Count&>(engine.process(1)).total_, 0U);
}

TEST(AdversaryMisc, SplitBrainRequiresBothInstances) {
  EXPECT_THROW(adversary::SplitBrain(nullptr, std::make_unique<adversary::Silent>(),
                                     [](PartyId) { return 0; }),
               std::logic_error);
}

TEST(AdversaryMisc, FilteringContextPassesMetadata) {
  net::Engine engine(net::Topology(net::TopologyKind::OneSided, 2), 1);
  class Probe final : public net::Process {
   public:
    void on_round(net::Context& ctx, net::Inbox) override {
      self_seen_ = ctx.self();
      topo_kind_ = ctx.topology().kind();
      can_sign_ = ctx.pki().verify(ctx.self(), {1}, ctx.signer().sign({1}));
    }
    PartyId self_seen_ = kNobody;
    net::TopologyKind topo_kind_ = net::TopologyKind::FullyConnected;
    bool can_sign_ = false;
  };
  auto probe = std::make_unique<Probe>();
  auto* ptr = probe.get();
  engine.set_corrupt(0, std::make_unique<adversary::SendFiltered>(
                            std::move(probe), [](PartyId, ByteView) { return false; }));
  for (PartyId id = 1; id < 4; ++id) engine.set_process(id, std::make_unique<adversary::Silent>());
  engine.run_guarded(1);
  EXPECT_EQ(ptr->self_seen_, 0U);
  EXPECT_EQ(ptr->topo_kind_, net::TopologyKind::OneSided);
  EXPECT_TRUE(ptr->can_sign_);
}

TEST(GeneratorMisc, ProfilesAreCompleteAndSeedStable) {
  for (std::uint32_t k : {1U, 2U, 5U, 9U}) {
    const auto a = matching::random_profile(k, 7);
    const auto b = matching::random_profile(k, 7);
    EXPECT_TRUE(a.complete());
    for (PartyId id = 0; id < 2 * k; ++id) EXPECT_EQ(a.list(id), b.list(id));
  }
}

TEST(GeneratorMisc, ContestedAndAlignedAreValid) {
  for (std::uint32_t k : {1U, 3U, 6U}) {
    EXPECT_TRUE(matching::contested_profile(k).complete());
    EXPECT_TRUE(matching::aligned_profile(k).complete());
  }
}

TEST(SsmMisc, RunnerKeepsBsmDecisionsIntact) {
  // run_ssm replaces only the report, never the decisions.
  SsmRunSpec spec;
  spec.config = BsmConfig{net::TopologyKind::FullyConnected, true, 2, 0, 0};
  spec.favorites = {3, 2, 1, 0};
  const auto out = run_ssm(std::move(spec));
  EXPECT_TRUE(out.report.all());
  EXPECT_EQ(out.decisions[0], std::optional<PartyId>{3});
  EXPECT_EQ(out.decisions[1], std::optional<PartyId>{2});
}

}  // namespace
}  // namespace bsm::core

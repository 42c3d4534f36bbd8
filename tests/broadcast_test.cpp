// Tests for the broadcast/agreement stack: quorum predicates, Dolev-Strong,
// phase-king BA (threshold and product structure), the omission-tolerant
// Pi_BA, and BB-via-BA — each under honest runs and adversarial batteries.
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
#include "net/engine.hpp"

namespace bsm::broadcast {
namespace {

using adversary::SplitBrain;

TEST(Quorums, ThresholdPredicates) {
  ThresholdQuorums q(4, 1);
  EXPECT_TRUE(q.complement_corruptible({0, 1, 2}));   // 3 >= 4 - 1
  EXPECT_FALSE(q.complement_corruptible({0, 1}));     // 2 < 3
  EXPECT_TRUE(q.has_honest({0, 1}));                  // 2 > 1
  EXPECT_FALSE(q.has_honest({0}));
  EXPECT_EQ(q.num_phases(), 2U);
  EXPECT_TRUE(q.q3());
  EXPECT_FALSE(ThresholdQuorums(3, 1).q3());
}

TEST(Quorums, ProductPredicates) {
  // k = 3, tL = 0, tR = 2: ids 0-2 left, 3-5 right.
  ProductQuorums q(3, 0, 2);
  EXPECT_TRUE(q.complement_corruptible({0, 1, 2, 3}));     // misses 0 L, 2 R
  EXPECT_FALSE(q.complement_corruptible({0, 1, 3, 4, 5})); // misses 1 L > tL
  EXPECT_TRUE(q.has_honest({0}));                          // 1 L-party > tL = 0
  EXPECT_FALSE(q.has_honest({3, 4}));                      // 2 R-parties <= tR
  EXPECT_TRUE(q.has_honest({3, 4, 5}));
  EXPECT_EQ(q.num_phases(), 3U);
  EXPECT_TRUE(q.q3());
  EXPECT_FALSE(ProductQuorums(3, 1, 1).q3());
  EXPECT_TRUE(ProductQuorums(4, 1, 4).q3());
}

/// Hosts one hub with a single instance per party; exposes the output.
class HostProcess final : public net::Process {
 public:
  HostProcess(net::RelayMode relay, std::uint32_t stride, std::uint32_t channel,
              std::vector<PartyId> participants, std::unique_ptr<Instance> instance)
      : hub_(relay, stride) {
    hub_.add_instance(channel, 0, std::move(participants), std::move(instance));
  }

  void on_round(net::Context& ctx, net::Inbox inbox) override {
    hub_.ingest(ctx, inbox);
    hub_.step_due(ctx);
  }

  [[nodiscard]] const Instance& instance(std::uint32_t channel) const {
    return hub_.instance(channel);
  }

 private:
  InstanceHub hub_;
};

struct Harness {
  Harness(net::TopologyKind topo, std::uint32_t k, std::uint64_t seed = 1)
      : engine(net::Topology(topo, k), seed) {}

  using InstanceFactory = std::function<std::unique_ptr<Instance>(PartyId)>;

  /// Install HostProcesses for all of `participants` (others get silence).
  void install(const std::vector<PartyId>& participants, InstanceFactory factory,
               net::RelayMode relay = net::RelayMode::Direct, std::uint32_t stride = 1) {
    participants_ = participants;
    for (PartyId id = 0; id < engine.topology().n(); ++id) {
      const bool in =
          std::find(participants.begin(), participants.end(), id) != participants.end();
      if (in) {
        engine.set_process(id, std::make_unique<HostProcess>(relay, stride, /*channel=*/0,
                                                             participants, factory(id)));
      } else {
        engine.set_process(id, std::make_unique<adversary::Silent>());
      }
    }
    factory_ = std::move(factory);
    relay_ = relay;
    stride_ = stride;
  }

  /// Replace a party with a split-brain running two instances of its code.
  void split_brain(PartyId id, InstanceFactory alt, SplitBrain::GroupOf group) {
    engine.set_corrupt(
        id, std::make_unique<SplitBrain>(
                std::make_unique<HostProcess>(relay_, stride_, 0, participants_, factory_(id)),
                std::make_unique<HostProcess>(relay_, stride_, 0, participants_, alt(id)),
                std::move(group)));
  }

  void run_steps(std::uint32_t steps) { engine.run_guarded(steps * stride_ + 1); }

  [[nodiscard]] const Instance& instance_of(PartyId id) {
    return dynamic_cast<HostProcess&>(engine.process(id)).instance(0);
  }

  net::Engine engine;
  std::vector<PartyId> participants_;
  InstanceFactory factory_;
  net::RelayMode relay_ = net::RelayMode::Direct;
  std::uint32_t stride_ = 1;
};

[[nodiscard]] Bytes val(std::uint8_t x) { return Bytes{x}; }

// ---------------------------------------------------------------- DolevStrong

TEST(DolevStrong, HonestSenderValidity) {
  for (std::uint32_t t : {0U, 1U, 2U, 3U}) {
    Harness h(net::TopologyKind::FullyConnected, 2);
    const std::vector<PartyId> all{0, 1, 2, 3};
    h.install(all, [&](PartyId id) {
      return std::make_unique<DolevStrong>(0, t, id == 0 ? val(42) : Bytes{});
    });
    h.run_steps(t + 1);
    for (PartyId id : all) {
      ASSERT_TRUE(h.instance_of(id).done()) << "t=" << t;
      ASSERT_TRUE(h.instance_of(id).output().has_value());
      EXPECT_EQ(*h.instance_of(id).output(), val(42));
    }
  }
}

TEST(DolevStrong, SilentSenderYieldsBottomEverywhere) {
  Harness h(net::TopologyKind::FullyConnected, 2);
  const std::vector<PartyId> all{0, 1, 2, 3};
  h.install(all, [&](PartyId id) {
    return std::make_unique<DolevStrong>(0, 1, id == 0 ? val(1) : Bytes{});
  });
  h.engine.set_corrupt(0, std::make_unique<adversary::Silent>());
  h.run_steps(2);
  for (PartyId id : {1U, 2U, 3U}) {
    ASSERT_TRUE(h.instance_of(id).done());
    EXPECT_FALSE(h.instance_of(id).output().has_value());
  }
}

TEST(DolevStrong, EquivocatingSenderStaysConsistent) {
  // Sender split-brains two values across the honest parties; with t >= 1
  // every honest party must land on the same output.
  Harness h(net::TopologyKind::FullyConnected, 2);
  const std::vector<PartyId> all{0, 1, 2, 3};
  const std::uint32_t t = 1;
  h.install(all, [&](PartyId id) {
    return std::make_unique<DolevStrong>(0, t, id == 0 ? val(1) : Bytes{});
  });
  h.split_brain(0, [&](PartyId) { return std::make_unique<DolevStrong>(0, t, val(2)); },
                [](PartyId p) { return p <= 1 ? 0 : 1; });
  h.run_steps(t + 1);
  std::set<std::optional<Bytes>> outputs;
  for (PartyId id : {1U, 2U, 3U}) {
    ASSERT_TRUE(h.instance_of(id).done());
    outputs.insert(h.instance_of(id).output());
  }
  EXPECT_EQ(outputs.size(), 1U) << "consistency violated";
}

TEST(DolevStrong, ToleratesAllButOneCorrupt) {
  // n = 4, t = 3: two silent byzantine parties plus an honest sender.
  Harness h(net::TopologyKind::FullyConnected, 2);
  const std::vector<PartyId> all{0, 1, 2, 3};
  h.install(all, [&](PartyId id) {
    return std::make_unique<DolevStrong>(0, 3, id == 0 ? val(9) : Bytes{});
  });
  h.engine.set_corrupt(2, std::make_unique<adversary::Silent>());
  h.engine.set_corrupt(3, std::make_unique<adversary::RandomNoise>(5, 3));
  h.run_steps(4);
  ASSERT_TRUE(h.instance_of(1).done());
  ASSERT_TRUE(h.instance_of(1).output().has_value());
  EXPECT_EQ(*h.instance_of(1).output(), val(9));
}

// ----------------------------------------------------------------- PhaseKing

class PhaseKingParam : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(PhaseKingParam, ValidityWithUnanimousInputs) {
  const auto [k, t] = GetParam();
  Harness h(net::TopologyKind::FullyConnected, (k + 1) / 2 + 1);
  std::vector<PartyId> parts;
  for (PartyId id = 0; id < k; ++id) parts.push_back(id);
  auto q = std::make_shared<const ThresholdQuorums>(k, t);
  h.install(parts, [&](PartyId) { return std::make_unique<PhaseKingBA>(val(7), q); });
  h.run_steps(3 * (t + 1));
  for (PartyId id : parts) {
    ASSERT_TRUE(h.instance_of(id).done());
    EXPECT_EQ(*h.instance_of(id).output(), val(7));
  }
}

TEST_P(PhaseKingParam, AgreementUnderSplitInputsAndByzantine) {
  const auto [k, t] = GetParam();
  if (3 * t >= k) GTEST_SKIP() << "outside phase-king validity region";
  Harness h(net::TopologyKind::FullyConnected, (k + 1) / 2 + 1);
  std::vector<PartyId> parts;
  for (PartyId id = 0; id < k; ++id) parts.push_back(id);
  auto q = std::make_shared<const ThresholdQuorums>(k, t);
  // Honest inputs split between two values; up to t byzantine split-brains.
  h.install(parts,
            [&](PartyId id) { return std::make_unique<PhaseKingBA>(val(id % 2 ? 1 : 2), q); });
  for (std::uint32_t b = 0; b < t; ++b) {
    h.split_brain(parts[k - 1 - b],
                  [&](PartyId) { return std::make_unique<PhaseKingBA>(val(3), q); },
                  [](PartyId p) { return p % 2; });
  }
  h.run_steps(3 * (t + 1));
  std::set<Bytes> outputs;
  for (std::uint32_t i = 0; i + t < k; ++i) {
    ASSERT_TRUE(h.instance_of(parts[i]).done());
    outputs.insert(*h.instance_of(parts[i]).output());
  }
  EXPECT_EQ(outputs.size(), 1U);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PhaseKingParam,
                         ::testing::Values(std::tuple{4U, 1U}, std::tuple{5U, 1U},
                                           std::tuple{7U, 2U}, std::tuple{9U, 2U},
                                           std::tuple{10U, 3U}));

TEST(ProductPhaseKing, AgreementAcrossSidesInQ3Region) {
  // k = 3 per side, tL = 0, tR = 2: two byzantine right-side split-brains.
  const std::uint32_t k = 3;
  Harness h(net::TopologyKind::FullyConnected, k);
  std::vector<PartyId> parts;
  for (PartyId id = 0; id < 2 * k; ++id) parts.push_back(id);
  auto q = std::make_shared<const ProductQuorums>(k, 0, 2);
  h.install(parts,
            [&](PartyId id) { return std::make_unique<PhaseKingBA>(val(id < 3 ? 1 : 2), q); });
  for (PartyId b : {4U, 5U}) {
    h.split_brain(b, [&](PartyId) { return std::make_unique<PhaseKingBA>(val(9), q); },
                  [](PartyId p) { return p % 2; });
  }
  h.run_steps(3 * q->num_phases());
  std::set<Bytes> outputs;
  for (PartyId id : {0U, 1U, 2U, 3U}) {
    ASSERT_TRUE(h.instance_of(id).done());
    outputs.insert(*h.instance_of(id).output());
  }
  EXPECT_EQ(outputs.size(), 1U);
}

// ---------------------------------------------------------------- OmissionBA

TEST(OmissionBA, FullAgreementWithoutOmissions) {
  const std::uint32_t k = 4;
  Harness h(net::TopologyKind::FullyConnected, k);
  std::vector<PartyId> parts{0, 1, 2, 3};
  auto q = std::make_shared<const ThresholdQuorums>(4, 1);
  h.install(parts, [&](PartyId id) { return std::make_unique<OmissionBA>(val(id == 0 ? 1 : 2), q); });
  h.run_steps(3 * 2 + 1);
  std::set<Bytes> outputs;
  for (PartyId id : parts) {
    ASSERT_TRUE(h.instance_of(id).done());
    ASSERT_TRUE(h.instance_of(id).output().has_value()) << "no omissions -> no bottom";
    outputs.insert(*h.instance_of(id).output());
  }
  EXPECT_EQ(outputs.size(), 1U);
}

TEST(OmissionBA, WeakAgreementUnderOmissions) {
  // Model network omissions by wrapping every participant in a send filter
  // that drops direct messages to party 3 (so 3 is starved of traffic).
  const std::uint32_t k = 4;
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, k), 1);
  std::vector<PartyId> parts{0, 1, 2, 3};
  auto q = std::make_shared<const ThresholdQuorums>(4, 1);
  std::vector<const HostProcess*> hosts(parts.size());
  for (PartyId id : parts) {
    auto host = std::make_unique<HostProcess>(
        net::RelayMode::Direct, 1, 0, parts,
        std::make_unique<OmissionBA>(val(id % 2 ? 1 : 2), q));
    hosts[id] = host.get();
    if (id != 3) {
      engine.set_process(id, std::make_unique<adversary::SendFiltered>(
                                 std::move(host),
                                 [](PartyId to, ByteView) { return to != 3; }));
    } else {
      engine.set_process(id, std::move(host));
    }
  }
  for (PartyId id = 4; id < 8; ++id) engine.set_process(id, std::make_unique<adversary::Silent>());
  engine.run_guarded(3 * 2 + 2);

  std::vector<std::optional<Bytes>> outputs;
  for (PartyId id : parts) {
    const auto& inst = hosts[id]->instance(0);
    ASSERT_TRUE(inst.done()) << "termination must survive omissions";
    outputs.push_back(inst.output());
  }
  // Weak agreement: all non-bottom outputs coincide.
  std::set<Bytes> non_bottom;
  for (const auto& o : outputs) {
    if (o.has_value()) non_bottom.insert(*o);
  }
  EXPECT_LE(non_bottom.size(), 1U);
}

// ------------------------------------------------------------------ BBviaBA

TEST(BBviaBA, ValidityAndConsistency) {
  const std::uint32_t k = 4;
  Harness h(net::TopologyKind::FullyConnected, k);
  std::vector<PartyId> parts{0, 1, 2, 3};
  auto q = std::make_shared<const ThresholdQuorums>(4, 1);
  const std::uint32_t dur = 3 * 2;
  auto factory = [&](PartyId id) {
    return std::make_unique<BBviaBA>(
        /*sender=*/1, id == 1 ? val(77) : Bytes{}, val(0), dur,
        [q](Bytes in) -> std::unique_ptr<Instance> {
          return std::make_unique<PhaseKingBA>(std::move(in), q);
        });
  };
  h.install(parts, factory);
  h.run_steps(1 + dur);
  for (PartyId id : parts) {
    ASSERT_TRUE(h.instance_of(id).done());
    EXPECT_EQ(*h.instance_of(id).output(), val(77));
  }
}

TEST(BBviaBA, SilentSenderYieldsDefault) {
  const std::uint32_t k = 4;
  Harness h(net::TopologyKind::FullyConnected, k);
  std::vector<PartyId> parts{0, 1, 2, 3};
  auto q = std::make_shared<const ThresholdQuorums>(4, 1);
  const std::uint32_t dur = 3 * 2;
  h.install(parts, [&](PartyId id) {
    return std::make_unique<BBviaBA>(1, id == 1 ? val(7) : Bytes{}, val(0), dur,
                                     [q](Bytes in) -> std::unique_ptr<Instance> {
                                       return std::make_unique<PhaseKingBA>(std::move(in), q);
                                     });
  });
  h.engine.set_corrupt(1, std::make_unique<adversary::Silent>());
  h.run_steps(1 + dur);
  for (PartyId id : {0U, 2U, 3U}) {
    ASSERT_TRUE(h.instance_of(id).done());
    EXPECT_EQ(*h.instance_of(id).output(), val(0));
  }
}

TEST(BBviaBA, EquivocatingSenderStillAgrees) {
  const std::uint32_t k = 4;
  Harness h(net::TopologyKind::FullyConnected, k);
  std::vector<PartyId> parts{0, 1, 2, 3};
  auto q = std::make_shared<const ThresholdQuorums>(4, 1);
  const std::uint32_t dur = 3 * 2;
  auto make = [&](std::uint8_t v) {
    return [&, v](PartyId id) {
      return std::make_unique<BBviaBA>(1, id == 1 ? val(v) : Bytes{}, val(0), dur,
                                       [q](Bytes in) -> std::unique_ptr<Instance> {
                                         return std::make_unique<PhaseKingBA>(std::move(in), q);
                                       });
    };
  };
  h.install(parts, make(5));
  h.split_brain(1, make(6), [](PartyId p) { return p < 2 ? 0 : 1; });
  h.run_steps(1 + dur);
  std::set<Bytes> outputs;
  for (PartyId id : {0U, 2U, 3U}) {
    ASSERT_TRUE(h.instance_of(id).done());
    outputs.insert(*h.instance_of(id).output());
  }
  EXPECT_EQ(outputs.size(), 1U);
}

// Instances also run over relayed topologies (stride 2).
TEST(DolevStrong, WorksOverSignedRelaysInBipartite) {
  Harness h(net::TopologyKind::Bipartite, 2);
  const std::vector<PartyId> all{0, 1, 2, 3};
  h.install(all,
            [&](PartyId id) { return std::make_unique<DolevStrong>(0, 2, id == 0 ? val(3) : Bytes{}); },
            net::RelayMode::AuthSigned, /*stride=*/2);
  h.run_steps(3);
  for (PartyId id : all) {
    ASSERT_TRUE(h.instance_of(id).done());
    EXPECT_EQ(*h.instance_of(id).output(), val(3));
  }
}

TEST(ProductPhaseKing, WorksOverMajorityRelaysInOneSided) {
  const std::uint32_t k = 3;
  Harness h(net::TopologyKind::OneSided, k);
  std::vector<PartyId> parts;
  for (PartyId id = 0; id < 2 * k; ++id) parts.push_back(id);
  auto q = std::make_shared<const ProductQuorums>(k, 0, 1);
  h.install(parts, [&](PartyId id) { return std::make_unique<PhaseKingBA>(val(id % 3), q); },
            net::RelayMode::UnauthMajority, /*stride=*/2);
  h.engine.set_corrupt(5, std::make_unique<adversary::Silent>());
  h.run_steps(3 * q->num_phases());
  std::set<Bytes> outputs;
  for (PartyId id = 0; id < 5; ++id) {
    ASSERT_TRUE(h.instance_of(id).done());
    outputs.insert(*h.instance_of(id).output());
  }
  EXPECT_EQ(outputs.size(), 1U);
}

}  // namespace
}  // namespace bsm::broadcast

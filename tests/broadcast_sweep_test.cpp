// Parameterized breadth sweep over the broadcast layer: every (n, t,
// adversary placement) combination in the validity region must deliver
// BB's three properties — validity, consistency, termination — for both
// engines (Dolev-Strong and phase-king BB via BA).
#include <gtest/gtest.h>

#include <set>

#include "adversary/shims.hpp"
#include "adversary/strategies.hpp"
#include "broadcast/bb_via_ba.hpp"
#include "broadcast/dolev_strong.hpp"
#include "broadcast/instance.hpp"
#include "broadcast/phase_king.hpp"
#include "broadcast/quorums.hpp"
#include "net/engine.hpp"

namespace bsm::broadcast {
namespace {

class Host final : public net::Process {
 public:
  Host(std::vector<PartyId> parts, std::unique_ptr<Instance> inst)
      : hub_(net::RelayMode::Direct, 1) {
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

struct SweepCase {
  std::uint32_t n;        ///< participants
  std::uint32_t t;        ///< threshold
  std::uint32_t corrupt;  ///< actually corrupted (<= t)
  bool sender_corrupt;    ///< is the designated sender among them?
  bool use_dolev_strong;  ///< engine selection
};

class BroadcastSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BroadcastSweep, BbPropertiesHold) {
  const SweepCase c = GetParam();
  if (!c.use_dolev_strong && 3 * c.t >= c.n) GTEST_SKIP() << "phase-king needs n > 3t";

  const std::uint32_t k = (c.n + 1) / 2;
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, k), c.n + c.t);
  std::vector<PartyId> parts;
  for (PartyId id = 0; id < c.n; ++id) parts.push_back(id);
  const PartyId sender = c.sender_corrupt ? PartyId{0} : PartyId{c.n - 1};
  const Bytes value{0x5A, 0x5A};

  auto make_instance = [&](PartyId id, Bytes input) -> std::unique_ptr<Instance> {
    if (c.use_dolev_strong) {
      return std::make_unique<DolevStrong>(sender, c.t, std::move(input));
    }
    auto q = std::make_shared<const ThresholdQuorums>(c.n, c.t);
    return std::make_unique<BBviaBA>(sender, std::move(input), Bytes{0}, 3 * (c.t + 1),
                                     [q](Bytes in) -> std::unique_ptr<Instance> {
                                       return std::make_unique<PhaseKingBA>(std::move(in), q);
                                     });
  };

  for (PartyId id = 0; id < 2 * k; ++id) {
    if (id < c.n) {
      engine.set_process(id, std::make_unique<Host>(parts, make_instance(
                                                               id, id == sender ? value : Bytes{})));
    } else {
      engine.set_process(id, std::make_unique<adversary::Silent>());
    }
  }
  // Corrupt ids 0 .. corrupt-1: a mix of silence, noise, and split-brain.
  for (std::uint32_t b = 0; b < c.corrupt; ++b) {
    switch (b % 3) {
      case 0:
        engine.set_corrupt(b, std::make_unique<adversary::SplitBrain>(
                                  std::make_unique<Host>(parts, make_instance(b, Bytes{1})),
                                  std::make_unique<Host>(parts, make_instance(b, Bytes{2})),
                                  [](PartyId p) { return static_cast<int>(p % 2); }));
        break;
      case 1:
        engine.set_corrupt(b, std::make_unique<adversary::Silent>());
        break;
      case 2:
        engine.set_corrupt(b, std::make_unique<adversary::RandomNoise>(b + 5, 3));
        break;
    }
  }

  const std::uint32_t duration = c.use_dolev_strong ? c.t + 1 : 1 + 3 * (c.t + 1);
  engine.run_guarded(duration + 2);

  std::set<std::optional<Bytes>> outputs;
  for (PartyId id = 0; id < c.n; ++id) {
    if (engine.is_corrupt(id)) continue;
    const auto& inst = dynamic_cast<Host&>(engine.process(id)).instance();
    ASSERT_TRUE(inst.done()) << "termination, P" << id;
    outputs.insert(inst.output());
  }
  EXPECT_EQ(outputs.size(), 1U) << "consistency";
  if (!c.sender_corrupt) {
    ASSERT_TRUE(outputs.begin()->has_value()) << "validity (honest sender)";
    EXPECT_EQ(**outputs.begin(), value) << "validity (honest sender)";
  }
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (const bool ds : {true, false}) {
    for (const std::uint32_t n : {4U, 7U, 10U}) {
      for (const std::uint32_t t : {1U, 2U, 3U}) {
        if (ds && t >= n) continue;
        for (const std::uint32_t corrupt : {0U, t}) {
          for (const bool sender_corrupt : {false, true}) {
            if (sender_corrupt && corrupt == 0) continue;
            cases.push_back({n, t, corrupt, sender_corrupt, ds});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, BroadcastSweep, ::testing::ValuesIn(sweep_cases()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           const auto& c = info.param;
                           return std::string(c.use_dolev_strong ? "ds" : "pk") + "_n" +
                                  std::to_string(c.n) + "_t" + std::to_string(c.t) + "_c" +
                                  std::to_string(c.corrupt) +
                                  (c.sender_corrupt ? "_senderbyz" : "_senderok");
                         });

}  // namespace
}  // namespace bsm::broadcast

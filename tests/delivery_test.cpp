// Engine-level contracts of the DeliveryPolicy hook (net/delivery.hpp):
// carry-over accounting (delayed envelopes attribute to their *delivery*
// round, differentially against the synchronous totals), drop accounting,
// reorder semantics, and the conservation law
//   sent == delivered + dropped + still-carried + last round's in-flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "net/engine.hpp"
#include "sched/policy.hpp"
#include "sched/trace.hpp"

namespace bsm::net {
namespace {

/// Sends one fixed 3-byte payload to every other party every round —
/// traffic that does not depend on the inbox, so scheduled and synchronous
/// runs send identically and only delivery-side counters may differ.
class Flooder final : public Process {
 public:
  void on_round(Context& ctx, Inbox) override {
    const std::uint32_t n = ctx.topology().n();
    for (PartyId to = 0; to < n; ++to) {
      if (to != ctx.self()) ctx.send(to, Bytes{1, 2, 3});
    }
  }
};

constexpr std::uint32_t kParties = 2;  // k = 2 -> n = 4
constexpr Round kRounds = 6;

[[nodiscard]] Engine flood_engine(std::unique_ptr<DeliveryPolicy> policy) {
  Engine engine(Topology(TopologyKind::FullyConnected, kParties), 7);
  if (policy != nullptr) engine.set_delivery_policy(std::move(policy));
  for (PartyId id = 0; id < 2 * kParties; ++id) {
    engine.set_process(id, std::make_unique<Flooder>());
  }
  return engine;
}

[[nodiscard]] std::unique_ptr<DeliveryPolicy> scripted(const char* text) {
  const auto trace = sched::ScheduleTrace::parse(text);
  EXPECT_TRUE(trace.has_value()) << text;
  return std::make_unique<sched::ScriptedPolicy>(*trace);
}

/// Run one more round and return the messages sent in it: the totals
/// diffed around that round.
[[nodiscard]] std::uint64_t final_round_sends(Engine& engine) {
  const std::uint64_t before = engine.stats().messages;
  engine.run_guarded(1);
  return engine.stats().messages - before;
}

/// (delivery round, sent round, from, to) of one delivered envelope.
using Arrival = std::tuple<Round, Round, PartyId, PartyId>;

/// Run `engine` for kRounds and return every delivery, sorted.
[[nodiscard]] std::vector<Arrival> arrivals(Engine& engine) {
  std::vector<Arrival> seen;
  engine.set_observer([&](const Envelope& env) {
    seen.emplace_back(engine.current_round(), env.sent_round, env.from, env.to);
  });
  engine.run_guarded(kRounds);
  engine.set_observer(nullptr);
  std::sort(seen.begin(), seen.end());
  return seen;
}

TEST(Delivery, SynchronousPolicyMatchesNullPolicyExactly) {
  Engine fast = flood_engine(nullptr);
  Engine via_policy = flood_engine(std::make_unique<sched::ScriptedPolicy>(sched::ScheduleTrace{}));
  fast.run_guarded(kRounds);
  via_policy.run_guarded(kRounds);

  for (PartyId id = 0; id < 2 * kParties; ++id) {
    EXPECT_EQ(fast.view_hash(id), via_policy.view_hash(id)) << "party " << id;
  }
  EXPECT_TRUE(fast.stats() == via_policy.stats());
  EXPECT_EQ(via_policy.pending_carried(), 0U);
}

TEST(Delivery, SynchronousDeliveryIsTheSendSideShiftedOneRound) {
  Engine engine = flood_engine(nullptr);
  std::uint64_t observed = 0;
  engine.set_observer([&](const Envelope& env) {
    EXPECT_EQ(engine.current_round(), env.sent_round + 1) << env.from << "->" << env.to;
    ++observed;
  });
  engine.run_guarded(kRounds - 1);
  const std::uint64_t last_sends = final_round_sends(engine);
  const auto& stats = engine.stats();

  // Sent at r delivers at r + 1; the final round's sends are in flight.
  EXPECT_EQ(observed, stats.delivered_messages);
  EXPECT_EQ(stats.delivered_messages + last_sends, stats.messages);
  EXPECT_EQ(stats.dropped_messages, 0U);
}

TEST(Delivery, DelayedEnvelopesAttributeToTheirDeliveryRound) {
  // Delay the whole 0 -> 2 group arriving at round 2 by two rounds; every
  // other channel is untouched. Differential vs the synchronous run.
  Engine sync = flood_engine(nullptr);
  Engine delayed = flood_engine(scripted("delay@2:0>2*2"));
  std::vector<Arrival> expected = arrivals(sync);
  const std::vector<Arrival> actual = arrivals(delayed);
  const auto& a = sync.stats();
  const auto& b = delayed.stats();

  // The send side is schedule-independent (Flooder ignores its inbox).
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);

  // Delivery side: the one 0 -> 2 envelope due at round 2 (sent at round
  // 1) arrives at round 4 instead; every other arrival is unchanged.
  const Arrival due{2, 1, 0, 2};
  ASSERT_EQ(std::count(expected.begin(), expected.end(), due), 1);
  *std::find(expected.begin(), expected.end(), due) = Arrival{4, 1, 0, 2};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(actual, expected);

  // Totals are conserved: the delayed envelope still arrived within the run.
  EXPECT_EQ(a.delivered_messages, b.delivered_messages);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(b.dropped_messages, 0U);
  EXPECT_EQ(delayed.pending_carried(), 0U);
}

TEST(Delivery, CarriedPastTheEndStaysPendingAndIsConserved) {
  Engine engine = flood_engine(scripted("delay@3:1>0*100;drop@2:0>1"));
  engine.run_guarded(kRounds - 1);
  const std::uint64_t last_sends = final_round_sends(engine);
  const auto& stats = engine.stats();

  EXPECT_EQ(engine.pending_carried(), 1U);  // the delayed 1 -> 0 envelope
  EXPECT_EQ(stats.dropped_messages, 1U);    // the dropped 0 -> 1 envelope
  EXPECT_EQ(stats.dropped_bytes, 3U);

  // Conservation: everything sent is delivered, dropped, still carried,
  // or in flight from the final round.
  EXPECT_EQ(stats.messages, stats.delivered_messages + stats.dropped_messages +
                                engine.pending_carried() + last_sends);
}

TEST(Delivery, DelayPastTheLastRoundSaturatesInsteadOfWrapping) {
  // round + 2^32 - 1 overflows a 32-bit Round: the due round must saturate,
  // or it wraps to an early round and the "delayed" envelope arrives next
  // round. Saturated, it stays carried like any delay past the horizon.
  Engine far = flood_engine(scripted("delay@1:1>0*4294967295"));
  Engine past = flood_engine(scripted("delay@1:1>0*1000000"));
  far.run_guarded(kRounds);
  past.run_guarded(kRounds);

  for (PartyId id = 0; id < 2 * kParties; ++id) {
    EXPECT_EQ(far.view_hash(id), past.view_hash(id)) << "party " << id;
  }
  EXPECT_EQ(far.pending_carried(), 1U);
  EXPECT_EQ(past.pending_carried(), 1U);
}

TEST(Delivery, PerChannelDeliveredCountersDecomposeTheTotal) {
  // Tally deliveries per channel and per round with the observer: under a
  // drop and a delay, both breakdowns sum to the engine's delivered totals.
  Engine engine = flood_engine(scripted("drop@1:0>3;delay@2:2>1*1"));
  std::map<std::pair<PartyId, PartyId>, std::uint64_t> by_channel;
  std::map<Round, std::uint64_t> by_round;
  std::uint64_t bytes = 0;
  engine.set_observer([&](const Envelope& env) {
    ++by_channel[{env.from, env.to}];
    ++by_round[engine.current_round()];
    bytes += env.payload.size();
  });
  engine.run_guarded(kRounds);
  const auto& stats = engine.stats();

  std::uint64_t channel_sum = 0;
  for (const auto& [channel, count] : by_channel) channel_sum += count;
  EXPECT_EQ(channel_sum, stats.delivered_messages);
  std::uint64_t round_sum = 0;
  for (const auto& [round, count] : by_round) round_sum += count;
  EXPECT_EQ(round_sum, stats.delivered_messages);
  EXPECT_EQ(bytes, stats.delivered_bytes);

  // The dropped 0 -> 3 envelope never arrives; the delayed 2 -> 1 one does.
  const auto channel = [&](PartyId from, PartyId to) { return by_channel[{from, to}]; };
  EXPECT_EQ(channel(0, 3), channel(1, 3) - 1);
  EXPECT_EQ(channel(2, 1), channel(3, 1));
  EXPECT_EQ(stats.dropped_messages, 1U);
}

TEST(Delivery, ReorderDemotesAGroupWithoutLosingIt) {
  Engine natural = flood_engine(nullptr);
  Engine reordered = flood_engine(scripted("rank@2:0>1*1"));
  std::uint64_t natural_0_to_1 = 0;  // deliveries on channel 0 -> 1
  std::uint64_t reordered_0_to_1 = 0;
  natural.set_observer([&](const Envelope& env) {
    if (env.from == 0 && env.to == 1) ++natural_0_to_1;
  });
  reordered.set_observer([&](const Envelope& env) {
    if (env.from == 0 && env.to == 1) ++reordered_0_to_1;
  });
  natural.run_guarded(kRounds);
  reordered.run_guarded(kRounds);

  // Same delivery counts everywhere...
  EXPECT_EQ(natural.stats().delivered_messages, reordered.stats().delivered_messages);
  EXPECT_EQ(natural_0_to_1, reordered_0_to_1);
  EXPECT_EQ(reordered_0_to_1, kRounds - 1U);
  // ...but party 1 saw round 2 in a different order (its view hash folds
  // the inbox sequence), while everyone else is untouched.
  EXPECT_NE(natural.view_hash(1), reordered.view_hash(1));
  for (const PartyId id : {0U, 2U, 3U}) {
    EXPECT_EQ(natural.view_hash(id), reordered.view_hash(id)) << "party " << id;
  }
}

TEST(Delivery, DelayedDeliveryKeepsSenderOrderAmongCarriedAndFresh) {
  // Delay 0 -> 1 at round 1 by one round: at round 2, party 1 receives the
  // carried round-0 send of party 0 *before* party 0's fresh round-1 send
  // (and before parties 2, 3). Verified via the observer's arrival order.
  Engine engine = flood_engine(scripted("delay@1:0>1*1"));
  std::vector<std::pair<Round, PartyId>> arrivals;  // (sent_round, from) seen by party 1
  engine.set_observer([&](const Envelope& env) {
    if (env.to == 1) arrivals.emplace_back(env.sent_round, env.from);
  });
  engine.run_guarded(3);

  // Round 1: froms {2, 3} (the 0 -> 1 group was delayed).
  // Round 2: carried (0, sent 0), fresh (0, sent 1), then 2, 3.
  const std::vector<std::pair<Round, PartyId>> expected = {
      {0, 2}, {0, 3}, {0, 0}, {1, 0}, {1, 2}, {1, 3}};
  EXPECT_EQ(arrivals, expected);
}

TEST(Delivery, ScriptedOpPastTheHorizonNeverActsAtAnEarlyRound) {
  // Round 2^24 + 1 shares its hash with round 1: the op must still never
  // apply, so the (round 1, 1 -> 2) envelope arrives as usual.
  Engine engine = flood_engine(scripted("drop@16777217:1>2"));
  const std::vector<Arrival> seen = arrivals(engine);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), Arrival{1, 0, 1, 2}), 1);
  EXPECT_EQ(engine.stats().dropped_messages, 0U);
}

TEST(Delivery, ScriptedOpPastTheHorizonDoesNotShadowARealOne) {
  // The first op on a slot wins, so an aliased delay listed first would
  // turn the round-1 drop into a delay to round 4.
  Engine engine = flood_engine(scripted("delay@16777217:1>2*3;drop@1:1>2"));
  const std::vector<Arrival> seen = arrivals(engine);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), Arrival{4, 0, 1, 2}), 0);
  EXPECT_EQ(engine.stats().dropped_messages, 1U);
}

TEST(Delivery, PolicySwapWithCarriedTrafficIsRejected) {
  Engine engine = flood_engine(scripted("delay@1:0>1*50"));
  engine.run_guarded(2);
  ASSERT_EQ(engine.pending_carried(), 1U);
  EXPECT_THROW(engine.set_delivery_policy(nullptr), std::logic_error);
}

}  // namespace
}  // namespace bsm::net

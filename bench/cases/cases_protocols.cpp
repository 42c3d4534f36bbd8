// Protocol-cost case groups: broadcast_protocols (E7, building-block round
// counts validated against the paper's closed forms), bsm_end_to_end (E8,
// per-construction full-run cost), and channel_simulation (E2, the virtual
// channel simulations of Lemmas 6/8/10).
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "adversary/strategies.hpp"
#include "broadcast/bb_via_ba.hpp"
#include "broadcast/dolev_strong.hpp"
#include "broadcast/instance.hpp"
#include "broadcast/omission_ba.hpp"
#include "broadcast/phase_king.hpp"
#include "broadcast/quorums.hpp"
#include "cases/cases.hpp"
#include "cases/digest.hpp"
#include "common/hash.hpp"
#include "core/bench.hpp"
#include "core/oracle.hpp"
#include "core/runner.hpp"
#include "matching/generators.hpp"
#include "net/engine.hpp"
#include "net/relay.hpp"

namespace bsm::benchcases {
namespace {

using namespace bsm;
using namespace bsm::broadcast;
using core::BenchContext;
using core::BenchRun;
using net::TopologyKind;

// ---------------------------------------------------- broadcast protocols

/// Hosts a single instance and remembers the engine round it decided in.
class Host final : public net::Process {
 public:
  Host(std::vector<PartyId> participants, std::unique_ptr<Instance> instance)
      : hub_(net::RelayMode::Direct, 1) {
    hub_.add_instance(0, 0, std::move(participants), std::move(instance));
  }
  void on_round(net::Context& ctx, net::Inbox inbox) override {
    hub_.ingest(ctx, inbox);
    hub_.step_due(ctx);
    if (decided_round_ == 0 && hub_.instance(0).done()) decided_round_ = ctx.round() + 1;
  }
  Round decided_round_ = 0;

 private:
  InstanceHub hub_;
};

/// Run one fault-free building-block instance over n_parties and measure
/// rounds-to-decision and physical traffic; folds into `run` and checks
/// the measured round count against the protocol's closed form.
void measure_block(BenchRun& run, std::uint32_t n_parties,
                   const std::function<std::unique_ptr<Instance>(PartyId)>& factory,
                   std::uint32_t max_steps, Round expected_rounds) {
  const std::uint32_t k = (n_parties + 1) / 2;
  net::Engine engine(net::Topology(TopologyKind::FullyConnected, k), 1);
  std::vector<PartyId> parts;
  for (PartyId id = 0; id < n_parties; ++id) parts.push_back(id);
  for (PartyId id = 0; id < 2 * k; ++id) {
    if (id < n_parties) {
      engine.set_process(id, std::make_unique<Host>(parts, factory(id)));
    } else {
      engine.set_process(id, std::make_unique<adversary::Silent>());  // filler id, unused
    }
  }
  engine.run_guarded(max_steps + 2);
  // decided_round_ == 0 means the instance never decided within the slack
  // (a protocol regression): fail the case without letting the unsigned
  // subtraction below wrap into the report.
  const Round decided = dynamic_cast<Host&>(engine.process(0)).decided_round_;
  run.ok &= decided != 0;
  const Round rounds = decided == 0 ? 0 : decided - 1;
  ++run.cells;
  run.rounds += rounds;
  run.messages += engine.stats().messages;
  run.bytes += engine.stats().bytes;
  for (PartyId id = 0; id < n_parties; ++id) {
    run.digest = hash_combine(run.digest, engine.view_hash(id));
  }
  run.ok &= rounds == expected_rounds;
}

/// E7: the broadcast/agreement building blocks at several sizes. ok iff
/// every measured rounds-to-decision equals the paper's closed form:
/// Dolev-Strong t+1, Pi_King 3(t+1), Pi_BA 3(t+1)+1, Pi_BB 3(t+1)+2,
/// product phase-king 3 * num_phases.
[[nodiscard]] BenchRun run_broadcast_blocks(const std::vector<std::uint32_t>& sizes,
                                            const std::vector<std::uint32_t>& product_ks) {
  BenchRun run;
  const Bytes value{1, 2, 3, 4};

  for (const std::uint32_t n : sizes) {
    const std::uint32_t t = (n - 1) / 3;
    auto q = std::make_shared<const ThresholdQuorums>(n, t);

    measure_block(
        run, n,
        [&](PartyId id) {
          return std::make_unique<DolevStrong>(0, t, id == 0 ? value : Bytes{});
        },
        t + 1, t + 1);
    measure_block(
        run, n, [&](PartyId) { return std::make_unique<PhaseKingBA>(value, q); }, 3 * (t + 1),
        3 * (t + 1));
    measure_block(
        run, n, [&](PartyId) { return std::make_unique<OmissionBA>(value, q); },
        3 * (t + 1) + 1, 3 * (t + 1) + 1);

    const std::uint32_t ba_dur = 3 * (t + 1) + 1;
    measure_block(
        run, n,
        [&](PartyId id) {
          return std::make_unique<BBviaBA>(0, id == 0 ? value : Bytes{}, Bytes{}, ba_dur,
                                           [q](Bytes in) -> std::unique_ptr<Instance> {
                                             return std::make_unique<OmissionBA>(std::move(in),
                                                                                 q);
                                           });
        },
        1 + ba_dur, 1 + ba_dur);
  }

  // Product-structure phase-king over both sides (Lemma 4's BB engine).
  for (const std::uint32_t k : product_ks) {
    const std::uint32_t tl = (k - 1) / 3;
    const std::uint32_t tr = k / 2;
    auto q = std::make_shared<const ProductQuorums>(k, tl, tr);
    const std::uint32_t dur = 3 * q->num_phases();
    measure_block(
        run, 2 * k, [&](PartyId) { return std::make_unique<PhaseKingBA>(value, q); }, dur, dur);
  }
  return run;
}

// --------------------------------------------------------- bsm end to end

struct Construction {
  const char* name;
  core::BsmConfig cfg;
  std::uint32_t silent_l = 0;
  std::uint32_t silent_r = 0;
};

[[nodiscard]] std::vector<Construction> constructions(std::uint32_t k) {
  const std::uint32_t third = (k - 1) / 3;
  return {
      {"btm_dolev_strong", {TopologyKind::FullyConnected, true, k, k / 2, k / 2}, 1, 1},
      {"btm_ds_signed_relay", {TopologyKind::Bipartite, true, k, k - 1, k - 1}, 1, 1},
      {"btm_product", {TopologyKind::FullyConnected, false, k, third, third}, 0, 1},
      {"btm_product_majority_relay",
       {TopologyKind::OneSided, false, k, third, (k - 1) / 2},
       0,
       1},
      {"pi_bsm_all_r_silent", {TopologyKind::Bipartite, true, k, third, k}, 0, k},
  };
}

/// E8: one full run of one construction with its standard silent-fault
/// load. ok iff the setting's four bSM properties held.
[[nodiscard]] BenchRun run_construction(const Construction& row, std::uint32_t k) {
  core::RunSpec spec;
  spec.config = row.cfg;
  spec.inputs = matching::random_profile(k, k * 7 + 1);
  for (std::uint32_t i = 0; i < row.silent_l && i < row.cfg.tl; ++i) {
    spec.adversaries.push_back({i, 0, std::make_unique<adversary::Silent>()});
  }
  for (std::uint32_t i = 0; i < row.silent_r && i < row.cfg.tr; ++i) {
    spec.adversaries.push_back({k + i, 0, std::make_unique<adversary::Silent>()});
  }
  const auto out = core::run_bsm(std::move(spec));
  BenchRun run;
  run.cells = 1;
  run.rounds = out.rounds;
  run.messages = out.traffic.messages;
  run.bytes = out.traffic.bytes;
  run.digest = digest_outcome(0, out);
  run.ok = out.report.all();
  return run;
}

// ----------------------------------------------------- channel simulation

class Sender final : public net::Process {
 public:
  Sender(net::RelayMode mode, PartyId to) : router_(mode), to_(to) {}
  void on_round(net::Context& ctx, net::Inbox inbox) override {
    (void)router_.route(ctx, inbox);
    if (ctx.round() == 0) router_.send(ctx, to_, Bytes{1, 2, 3, 4});
  }

 private:
  net::RelayRouter router_;
  PartyId to_;
};

class Receiver final : public net::Process {
 public:
  explicit Receiver(net::RelayMode mode) : router_(mode) {}
  void on_round(net::Context& ctx, net::Inbox inbox) override {
    for (auto& msg : router_.route(ctx, inbox)) {
      (void)msg;
      if (delivered_round_ == 0) delivered_round_ = ctx.round();
    }
  }
  Round delivered_round_ = 0;

 private:
  net::RelayRouter router_;
};

class Forwarder final : public net::Process {
 public:
  explicit Forwarder(net::RelayMode mode) : router_(mode) {}
  void on_round(net::Context& ctx, net::Inbox inbox) override { (void)router_.route(ctx, inbox); }

 private:
  net::RelayRouter router_;
};

/// E2: one L party sends to another L party across the one-sided topology
/// with `corrupt_relays` silent relays, under one relay mode. Folds the
/// measurement into `run` and checks the paper's claims: delivery iff the
/// mode's relay threshold is met (majority: < k/2 honest-relay bound;
/// signed/timed: any honest relay), and delivered latency exactly 2 Delta.
void measure_channel(BenchRun& run, net::RelayMode mode, std::uint32_t k,
                     std::uint32_t corrupt_relays) {
  net::Engine engine(net::Topology(TopologyKind::OneSided, k), 1);
  engine.set_process(0, std::make_unique<Sender>(mode, 1));
  engine.set_process(1, std::make_unique<Receiver>(mode));
  for (PartyId id = 2; id < k; ++id) {
    engine.set_process(id, std::make_unique<adversary::Silent>());
  }
  for (PartyId r = k; r < 2 * k; ++r) {
    if (r - k < corrupt_relays) {
      engine.set_corrupt(r, std::make_unique<adversary::Silent>());
    } else {
      engine.set_process(r, std::make_unique<Forwarder>(mode));
    }
  }
  engine.run_guarded(6);
  const auto& recv = dynamic_cast<Receiver&>(engine.process(1));
  const bool delivered = recv.delivered_round_ != 0;

  ++run.cells;
  run.messages += engine.stats().messages;
  run.bytes += engine.stats().bytes;
  run.rounds += delivered ? recv.delivered_round_ : 0;
  run.digest = hash_combine(
      run.digest, splitmix64((std::uint64_t{k} << 40) | (std::uint64_t{corrupt_relays} << 20) |
                             recv.delivered_round_));

  const bool expect_delivery = mode == net::RelayMode::UnauthMajority
                                   ? 2 * corrupt_relays < k
                                   : corrupt_relays < k;
  run.ok &= delivered == expect_delivery;
  if (delivered) run.ok &= recv.delivered_round_ == 2;
}

[[nodiscard]] BenchRun run_channel(net::RelayMode mode, const std::vector<std::uint32_t>& ks) {
  BenchRun run;
  for (const std::uint32_t k : ks) {
    // Fault-free, at the majority boundary, and fully corrupt — the last
    // point exercises the non-delivery branch of every relay mode.
    for (const std::uint32_t corrupt : {0U, (k + 1) / 2, k}) {
      measure_channel(run, mode, k, corrupt);
    }
  }
  return run;
}

}  // namespace

void register_broadcast_protocols() {
  core::register_bench({"broadcast_protocols/closed_forms",
                        [](const BenchContext&) {
                          return run_broadcast_blocks({4U, 7U, 10U, 13U}, {3U, 4U, 6U});
                        }});
  core::register_bench({"broadcast_protocols/smoke",
                        [](const BenchContext&) { return run_broadcast_blocks({4U}, {3U}); }});
}

void register_bsm_end_to_end() {
  for (const std::uint32_t k : {3U, 5U, 8U}) {
    for (const auto& row : constructions(k)) {
      if (!core::solvable(row.cfg)) continue;
      core::register_bench({"bsm_end_to_end/" + std::string(row.name) + "_k" +
                                std::to_string(k),
                            [row, k](const BenchContext&) { return run_construction(row, k); }});
    }
  }
  // Distinct from the k in {3,5,8} grid above, so the full suite never
  // executes the same workload twice.
  const auto smoke_row = constructions(4).front();
  core::register_bench({"bsm_end_to_end/smoke",
                        [smoke_row](const BenchContext&) {
                          return run_construction(smoke_row, 4);
                        }});
}

void register_channel_simulation() {
  const std::vector<std::uint32_t> ks{3U, 5U, 9U};
  core::register_bench({"channel_simulation/majority",
                        [ks](const BenchContext&) {
                          return run_channel(net::RelayMode::UnauthMajority, ks);
                        }});
  core::register_bench({"channel_simulation/signed",
                        [ks](const BenchContext&) {
                          return run_channel(net::RelayMode::AuthSigned, ks);
                        }});
  core::register_bench({"channel_simulation/timed_signed",
                        [ks](const BenchContext&) {
                          return run_channel(net::RelayMode::AuthTimed, ks);
                        }});
  core::register_bench({"channel_simulation/smoke",
                        [](const BenchContext&) {
                          return run_channel(net::RelayMode::UnauthMajority, {3U});
                        }});
}

}  // namespace bsm::benchcases

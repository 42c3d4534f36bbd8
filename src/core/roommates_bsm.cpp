#include "core/roommates_bsm.hpp"

#include "broadcast/bb_via_ba.hpp"
#include "broadcast/dolev_strong.hpp"
#include "broadcast/phase_king.hpp"
#include "broadcast/quorums.hpp"

namespace bsm::core {

namespace {

[[nodiscard]] std::uint32_t bb_duration(const RoommatesConfig& cfg) {
  if (cfg.authenticated) return cfg.t + 1;       // Dolev-Strong
  return 1 + 3 * (cfg.t + 1);                    // send + phase-king BA
}

[[nodiscard]] std::unique_ptr<broadcast::Instance> make_bb(const RoommatesConfig& cfg,
                                                           PartyId sender,
                                                           const Bytes& input_if_sender) {
  if (cfg.authenticated) {
    return std::make_unique<broadcast::DolevStrong>(sender, cfg.t, input_if_sender);
  }
  auto quorums = std::make_shared<const broadcast::ThresholdQuorums>(cfg.n, cfg.t);
  Bytes def = matching::encode_roommate_list(matching::default_roommate_list(sender, cfg.n));
  return std::make_unique<broadcast::BBviaBA>(
      sender, input_if_sender, std::move(def), 3 * (cfg.t + 1),
      [quorums](Bytes in) -> std::unique_ptr<broadcast::Instance> {
        return std::make_unique<broadcast::PhaseKingBA>(std::move(in), quorums);
      });
}

}  // namespace

std::string RoommatesConfig::describe() const {
  return std::string{"roommates"} + (authenticated ? "/auth" : "/unauth") + " n=" +
         std::to_string(n) + " t=" + std::to_string(t);
}

bool roommates_solvable(const RoommatesConfig& cfg) {
  require(cfg.n >= 2 && cfg.n % 2 == 0, "roommates_solvable: n must be even");
  require(cfg.t <= cfg.n, "roommates_solvable: t exceeds n");
  return cfg.authenticated ? cfg.t < cfg.n : 3 * cfg.t < cfg.n;
}

Round RoommatesBtm::total_rounds(const RoommatesConfig& cfg) { return bb_duration(cfg) + 1; }

RoommatesBtm::RoommatesBtm(const RoommatesConfig& cfg, PartyId self, std::vector<PartyId> input)
    : cfg_(cfg), self_(self), hub_(net::RelayMode::Direct, 1) {
  require(cfg.n >= 2 && cfg.n % 2 == 0, "RoommatesBtm: n must be even");
  require(matching::decode_roommate_list(matching::encode_roommate_list(input), self, cfg.n)
              .has_value(),
          "RoommatesBtm: invalid input list");
  const Bytes own = matching::encode_roommate_list(input);

  std::vector<PartyId> everyone;
  everyone.reserve(cfg.n);
  for (PartyId id = 0; id < cfg.n; ++id) everyone.push_back(id);
  for (PartyId sender = 0; sender < cfg.n; ++sender) {
    hub_.add_instance(sender, /*base=*/0, everyone,
                      make_bb(cfg, sender, sender == self ? own : Bytes{}));
  }
}

void RoommatesBtm::on_round(net::Context& ctx, net::Inbox inbox) {
  hub_.ingest(ctx, inbox);
  hub_.step_due(ctx);
  if (decided_ || !hub_.all_done()) return;

  matching::RoommatePreferences prefs(cfg_.n);
  for (PartyId id = 0; id < cfg_.n; ++id) {
    const auto& out = hub_.instance(id).output();
    std::optional<std::vector<PartyId>> list;
    if (out.has_value()) list = matching::decode_roommate_list(*out, id, cfg_.n);
    prefs[id] = list.value_or(matching::default_roommate_list(id, cfg_.n));
  }

  const auto solution = matching::stable_roommates(prefs);
  if (solution.has_value()) {
    matching_ = *solution;
    decision_ = matching_[self_];
  } else {
    decision_ = kNobody;  // justified abstention: the agreed instance has no
                          // stable matching — all honest agents abstain alike
  }
  decided_ = true;
}

PropertyReport check_brm(std::uint32_t n, const std::vector<bool>& corrupt,
                         const matching::RoommatePreferences& honest_inputs,
                         const std::vector<std::optional<PartyId>>& decisions) {
  PropertyReport rep;
  require(corrupt.size() == n && decisions.size() == n, "check_brm: size mismatch");

  for (PartyId x = 0; x < n; ++x) {
    if (corrupt[x]) continue;
    if (!decisions[x].has_value()) {
      rep.termination = false;
      rep.violations.push_back("termination: P" + std::to_string(x) + " produced no output");
      continue;
    }
    const PartyId y = *decisions[x];
    if (y != kNobody && (y >= n || y == x)) {
      rep.termination = false;
      rep.violations.push_back("termination: P" + std::to_string(x) + " output is not an agent");
    }
  }

  for (PartyId x = 0; x < n; ++x) {
    if (corrupt[x] || !decisions[x].has_value()) continue;
    const PartyId y = *decisions[x];
    if (y == kNobody || y >= n) continue;
    if (!corrupt[y] && decisions[y].has_value() && *decisions[y] != x) {
      rep.symmetry = false;
      rep.violations.push_back("symmetry: P" + std::to_string(x) + " matched P" +
                               std::to_string(y) + " without reciprocation");
    }
    for (PartyId z = x + 1; z < n; ++z) {
      if (corrupt[z] || !decisions[z].has_value()) continue;
      if (*decisions[z] == y) {
        rep.non_competition = false;
        rep.violations.push_back("non-competition: P" + std::to_string(x) + " and P" +
                                 std::to_string(z) + " both matched P" + std::to_string(y));
      }
    }
  }

  // Weak stability: a blocking honest pair only counts when at least one of
  // the two is matched (all-unmatched pairs cover justified abstention).
  const auto valid = [&](PartyId owner, PartyId m) { return m != kNobody && m < n && m != owner; };
  for (PartyId x = 0; x < n; ++x) {
    if (corrupt[x] || !decisions[x].has_value()) continue;
    for (PartyId y = x + 1; y < n; ++y) {
      if (corrupt[y] || !decisions[y].has_value()) continue;
      const PartyId mx = *decisions[x];
      const PartyId my = *decisions[y];
      if (mx == y) continue;
      if (!valid(x, mx) && !valid(y, my)) continue;  // both unmatched: allowed
      const bool x_wants = !valid(x, mx) || matching::roommate_rank(honest_inputs, x, y) <
                                                matching::roommate_rank(honest_inputs, x, mx);
      const bool y_wants = !valid(y, my) || matching::roommate_rank(honest_inputs, y, x) <
                                                matching::roommate_rank(honest_inputs, y, my);
      if (x_wants && y_wants) {
        rep.stability = false;
        rep.violations.push_back("weak stability: honest pair (P" + std::to_string(x) + ", P" +
                                 std::to_string(y) + ") is blocking");
      }
    }
  }
  return rep;
}

RoommatesRunOutcome run_roommates(RoommatesRunSpec spec) {
  const auto& cfg = spec.config;
  require(roommates_solvable(cfg), "run_roommates: setting unsolvable by our constructions");
  require(spec.inputs.size() == cfg.n, "run_roommates: inputs sized for a different n");

  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, cfg.n / 2), spec.pki_seed);
  for (PartyId id = 0; id < cfg.n; ++id) {
    engine.set_process(id, std::make_unique<RoommatesBtm>(cfg, id, spec.inputs[id]));
  }
  for (auto& [id, strategy] : spec.adversaries) {
    engine.set_corrupt(id, std::move(strategy));
  }

  const Round rounds = RoommatesBtm::total_rounds(cfg) + 2;
  engine.run_guarded(rounds);

  RoommatesRunOutcome out;
  out.rounds = rounds;
  out.corrupt = engine.corrupt_mask();
  out.traffic = engine.stats();
  out.decisions.resize(cfg.n);
  for (PartyId id = 0; id < cfg.n; ++id) {
    if (out.corrupt[id]) continue;
    const auto& process = dynamic_cast<const RoommatesBtm&>(engine.process(id));
    if (process.decided()) out.decisions[id] = process.decision();
  }
  out.report = check_brm(cfg.n, out.corrupt, spec.inputs, out.decisions);
  return out;
}

}  // namespace bsm::core

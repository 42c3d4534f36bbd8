// Byzantine stable roommates (bRM) — the paper's first further-research
// direction (Section 6), built on the same substrates as bSM.
//
// One set of n agents (n even) in a fully-connected synchronous network,
// up to t byzantine. Unlike two-sided stable matching, a stable matching
// may not exist, so (as the paper notes) the properties need refinement.
// Our choices:
//
//  (Termination)      every honest agent outputs an agent or nobody;
//  (Symmetry)         honest matches are reciprocal;
//  (Non-competition)  no two honest agents output the same agent;
//  (Weak stability)   no blocking pair of honest agents *of which at least
//                     one is matched*. All-honest-unmatched pairs are
//                     permitted: they cover the protocol's justified
//                     abstention when the (agreed) instance admits no
//                     stable matching at all.
//
// Protocol: broadcast-then-match again — every agent broadcasts its list
// via BB (Dolev-Strong under PKI, tolerating any t < n; phase-king BB
// without PKI, t < n/3), everyone runs Irving's algorithm on the agreed
// profile (default lists for silent/garbled agents), and outputs its
// partner, or nobody when no stable matching exists. Because all honest
// agents run the deterministic algorithm on identical inputs, they either
// all abstain together or all adopt the same matching.
#pragma once

#include <optional>

#include "broadcast/instance.hpp"
#include "core/properties.hpp"
#include "matching/roommates.hpp"
#include "net/engine.hpp"
#include "net/process.hpp"

namespace bsm::core {

struct RoommatesConfig {
  std::uint32_t n = 0;  ///< number of agents, even
  std::uint32_t t = 0;  ///< corruption budget
  bool authenticated = false;

  [[nodiscard]] std::string describe() const;
};

/// Is bRM solvable by our constructions in this setting? (auth: t < n;
/// unauth: t < n/3 — BB feasibility; the paper's necessary conditions for
/// bSM apply to bRM as well, see Section 6.)
[[nodiscard]] bool roommates_solvable(const RoommatesConfig& cfg);

/// The broadcast-then-match process for one agent.
class RoommatesBtm final : public net::Process {
 public:
  RoommatesBtm(const RoommatesConfig& cfg, PartyId self, std::vector<PartyId> input);

  void on_round(net::Context& ctx, net::Inbox inbox) override;

  [[nodiscard]] bool decided() const noexcept { return decided_; }
  [[nodiscard]] PartyId decision() const noexcept { return decision_; }
  /// Empty when the agreed instance had no stable matching.
  [[nodiscard]] const matching::RoommateMatching& matching() const noexcept { return matching_; }

  [[nodiscard]] static Round total_rounds(const RoommatesConfig& cfg);

 private:
  RoommatesConfig cfg_;
  PartyId self_;
  broadcast::InstanceHub hub_;
  bool decided_ = false;
  PartyId decision_ = kNobody;
  matching::RoommateMatching matching_;
};

/// Post-hoc verification of the refined bRM properties.
PropertyReport check_brm(std::uint32_t n, const std::vector<bool>& corrupt,
                         const matching::RoommatePreferences& honest_inputs,
                         const std::vector<std::optional<PartyId>>& decisions);

/// One-call driver mirroring run_bsm.
struct RoommatesRunSpec {
  RoommatesConfig config;
  matching::RoommatePreferences inputs;
  std::vector<std::pair<PartyId, std::unique_ptr<net::Process>>> adversaries;
  std::uint64_t pki_seed = 1;
};

struct RoommatesRunOutcome {
  std::vector<std::optional<PartyId>> decisions;
  std::vector<bool> corrupt;
  PropertyReport report;
  net::TrafficStats traffic;
  Round rounds = 0;
};

[[nodiscard]] RoommatesRunOutcome run_roommates(RoommatesRunSpec spec);

}  // namespace bsm::core

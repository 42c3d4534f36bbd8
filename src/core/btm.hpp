// "Broadcast-then-match" — the paper's warm-up reduction (Lemma 1): every
// party broadcasts its preference list via byzantine broadcast, everyone
// obtains an identical view of all lists, runs A_G-S offline, and outputs
// its own match.
//
// Instantiations used by the feasibility theorems:
//  - DolevStrong BB (authenticated; any tL + tR < n) — Theorems 5, 6(i), 7;
//  - product-structure phase-king BB (unauthenticated; tL < k/3 or
//    tR < k/3) — Theorems 2, 3, 4 via Lemma 4.
// Combined with relay transports (Lemmas 6/8) and stride 2, the same
// process also covers the one-sided and bipartite reductions.
#pragma once

#include <memory>
#include <optional>

#include "broadcast/instance.hpp"
#include "broadcast/quorums.hpp"
#include "core/problem.hpp"
#include "matching/gale_shapley.hpp"
#include "matching/preferences.hpp"

namespace bsm::core {

enum class BbKind : std::uint8_t { DolevStrong, ProductPhaseKing };

class BroadcastThenMatch final : public BsmProcess {
 public:
  BroadcastThenMatch(const BsmConfig& cfg, BbKind bb, net::RelayMode relay, std::uint32_t stride,
                     PartyId self, matching::PreferenceList input);
  // The phase-king factories hold the address of quorums_.
  BroadcastThenMatch(const BroadcastThenMatch&) = delete;
  BroadcastThenMatch& operator=(const BroadcastThenMatch&) = delete;

  void on_round(net::Context& ctx, net::Inbox inbox) override;

  [[nodiscard]] bool decided() const override { return decided_; }
  [[nodiscard]] PartyId decision() const override { return decision_; }

  /// The full matching this party computed (empty until decided).
  [[nodiscard]] const matching::Matching& matching() const { return matching_; }

  /// BB running time in protocol steps for this configuration.
  [[nodiscard]] static std::uint32_t bb_duration(const BsmConfig& cfg, BbKind bb);
  /// Engine rounds needed for every party to decide.
  [[nodiscard]] static Round total_rounds(const BsmConfig& cfg, BbKind bb, std::uint32_t stride);

 private:
  BsmConfig cfg_;
  PartyId self_;
  /// Phase-king only: the product structure every agreement instance shares.
  std::shared_ptr<const broadcast::ProductQuorums> quorums_;
  broadcast::InstanceHub hub_;
  bool decided_ = false;
  PartyId decision_ = kNobody;
  matching::Matching matching_;
};

}  // namespace bsm::core

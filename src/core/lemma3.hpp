// Executable Lemma 3: scaling a protocol *down* by group simulation.
//
// Given a protocol Pi solving sSM/bSM for K parties per side tolerating
// (tL, tR), Lemma 3 builds a protocol Pi' for d parties per side
// tolerating (floor(tL / ceil(K/d)), floor(tR / ceil(K/d))): each small
// party simulates a whole group of big parties, the group representative
// carries the small party's input (favorite ranked first), and the small
// output is read off the representative's match. Every impossibility proof
// in the paper uses this to inflate a small counterexample to arbitrary n.
//
// GroupSimulation is the simulating process: it hosts one inner big-party
// process per group member, multiplexes their big-network traffic over the
// small network (tagged frames between simulators, internal loopback
// within a group, both with the same one-round delay), and exposes the
// representative's decision mapped back to small ids.
//
// Limitation (documented): the big network's PKI is derived from a seed
// all simulators share, so the construction is sound for honest parties
// and for byzantine parties that control *their own* groups (the model of
// Lemma 3), and is exercised here with the unauthenticated construction.
#pragma once

#include <map>
#include <memory>

#include "core/factory.hpp"
#include "core/problem.hpp"

namespace bsm::core {

/// Balanced partition helpers: big side-index ranges per group.
/// owner: which small party simulates `big` (same side); representative:
/// the big party carrying the small party's input.
[[nodiscard]] PartyId lemma3_owner(std::uint32_t big_k, std::uint32_t d, PartyId big);
[[nodiscard]] PartyId lemma3_representative(std::uint32_t big_k, std::uint32_t d, PartyId small);

/// Expand a small preference list (over 2d ids) into the representative's
/// big list: mapped representatives first, then the remaining big ids.
[[nodiscard]] matching::PreferenceList lemma3_expand_list(const matching::PreferenceList& small,
                                                          PartyId small_self,
                                                          std::uint32_t big_k, std::uint32_t d);

class GroupSimulation final : public BsmProcess {
 public:
  /// `big` and `big_proto` describe the simulated protocol (k = K);
  /// `small_self` is this party's id in the 2d-party network.
  GroupSimulation(const BsmConfig& big, const ProtocolSpec& big_proto, std::uint32_t d,
                  PartyId small_self, matching::PreferenceList small_input,
                  std::uint64_t big_pki_seed);

  void on_round(net::Context& ctx, net::Inbox inbox) override;

  [[nodiscard]] bool decided() const override;
  [[nodiscard]] PartyId decision() const override;

 private:
  /// An intra-group message, delivered next round. It outlives the round's
  /// payload arena, so it owns its bytes.
  struct Internal {
    PartyId from = kNobody;
    PartyId to = kNobody;
    Round round = 0;
    Bytes payload;
  };

  BsmConfig big_;
  std::uint32_t d_;
  PartyId self_small_;
  PartyId representative_;
  net::Topology big_topo_;
  std::shared_ptr<const crypto::Pki> big_pki_;
  std::map<PartyId, std::unique_ptr<BsmProcess>> members_;  ///< big id -> inner process
  std::vector<Internal> internal_;                          ///< intra-group, next round
};

}  // namespace bsm::core

// Phase-king byzantine agreement (Berman-Garay-Perry, paper Pi_King /
// Appendix A.6), generalized over the adversary structure via Quorums.
//
// With ThresholdQuorums(k, t) on one side this is exactly the paper's
// Pi_King: 3(t+1) protocol rounds. With ProductQuorums(k, tL, tR) over all
// 2k parties it is the phase-king variant of the Fitzi-Maurer
// general-adversary agreement the paper invokes for Lemma 4; correctness
// needs Q3 (tL < k/3 or tR < k/3).
//
// Guarantees (participant set honest outside the structure, no omissions):
// termination, validity, agreement. Under message omissions it still
// terminates within the same fixed number of steps, with whatever value it
// holds (the omission-tolerant weak-agreement wrapper is OmissionBA).
#pragma once

#include <memory>

#include "broadcast/instance.hpp"
#include "broadcast/quorums.hpp"
#include "broadcast/tally.hpp"

namespace bsm::broadcast {

class PhaseKingBA final : public Instance {
 public:
  PhaseKingBA(Bytes input, std::shared_ptr<const Quorums> quorums);

  void step(InstanceIo& io, std::uint32_t s, const std::vector<net::AppMsg>& inbox) override;

  /// 3 rounds per phase; decides at step 3 * num_phases.
  [[nodiscard]] std::uint32_t duration() const override { return 3 * quorums_->num_phases(); }

 private:
  [[nodiscard]] static PartyId king_of(const std::vector<PartyId>& participants,
                                       std::uint32_t phase);

  Bytes v_;
  bool strong_ = false;
  std::shared_ptr<const Quorums> quorums_;
  TallyArena tally_;  ///< per-instance scratch, reused every sub-round
};

}  // namespace bsm::broadcast

#include "core/btm.hpp"

#include "broadcast/bb_via_ba.hpp"
#include "broadcast/dolev_strong.hpp"
#include "broadcast/phase_king.hpp"
#include "broadcast/quorums.hpp"

namespace bsm::core {

std::uint32_t BroadcastThenMatch::bb_duration(const BsmConfig& cfg, BbKind bb) {
  if (bb == BbKind::DolevStrong) return cfg.tl + cfg.tr + 1;
  return 1 + 3 * (cfg.tl + cfg.tr + 1);
}

Round BroadcastThenMatch::total_rounds(const BsmConfig& cfg, BbKind bb, std::uint32_t stride) {
  return bb_duration(cfg, bb) * stride + 1;
}

BroadcastThenMatch::BroadcastThenMatch(const BsmConfig& cfg, BbKind bb, net::RelayMode relay,
                                       std::uint32_t stride, PartyId self,
                                       matching::PreferenceList input)
    : cfg_(cfg), self_(self), hub_(relay, stride) {
  require(matching::is_valid_preference_list(input, side_of(self, cfg.k), cfg.k),
          "BroadcastThenMatch: invalid input list");
  const Bytes own = matching::encode_preference_list(input);

  // Built once per process and shared by its n instances: the participant
  // list (the hub keeps one copy), and for phase-king the quorums and the
  // two sides' encoded default lists.
  std::vector<PartyId> everyone(cfg.n());
  for (PartyId p = 0; p < cfg.n(); ++p) everyone[p] = p;

  if (bb == BbKind::DolevStrong) {
    for (PartyId sender = 0; sender < cfg.n(); ++sender) {
      hub_.add_instance(sender, /*base=*/0, everyone,
                        std::make_unique<broadcast::DolevStrong>(
                            sender, cfg.tl + cfg.tr, sender == self ? own : Bytes{}));
    }
    return;
  }

  quorums_ = std::make_shared<const broadcast::ProductQuorums>(cfg.k, cfg.tl, cfg.tr);
  const Bytes defaults[2] = {
      matching::encode_preference_list(matching::default_preference_list(Side::Left, cfg.k)),
      matching::encode_preference_list(matching::default_preference_list(Side::Right, cfg.k))};
  const std::uint32_t ba_duration = 3 * quorums_->num_phases();
  for (PartyId sender = 0; sender < cfg.n(); ++sender) {
    const Bytes& def = defaults[side_of(sender, cfg.k) == Side::Left ? 0 : 1];
    // The factory captures the address of quorums_, which outlives hub_
    // (it is declared first), so the std::function stores it inline
    // instead of allocating a copy of a shared_ptr per instance.
    hub_.add_instance(
        sender, /*base=*/0, everyone,
        std::make_unique<broadcast::BBviaBA>(
            sender, sender == self ? own : Bytes{}, def, ba_duration,
            [quorums = &quorums_](Bytes in) -> std::unique_ptr<broadcast::Instance> {
              return std::make_unique<broadcast::PhaseKingBA>(std::move(in), *quorums);
            }));
  }
}

void BroadcastThenMatch::on_round(net::Context& ctx, net::Inbox inbox) {
  hub_.ingest(ctx, inbox);
  hub_.step_due(ctx);
  if (decided_ || !hub_.all_done()) return;

  // Identical broadcast outputs at every honest party => identical profile
  // => identical A_G-S matching (Theorem 1 is deterministic).
  matching::PreferenceProfile profile(cfg_.k);
  for (PartyId id = 0; id < cfg_.n(); ++id) {
    const Side side = side_of(id, cfg_.k);
    const auto& out = hub_.instance(id).output();
    std::optional<matching::PreferenceList> list;
    if (out.has_value()) list = matching::decode_preference_list(*out, side, cfg_.k);
    profile.set(id, list ? std::move(*list) : matching::default_preference_list(side, cfg_.k));
  }
  matching_ = matching::gale_shapley(profile).matching;
  decision_ = matching_[self_];
  decided_ = true;
}

}  // namespace bsm::core

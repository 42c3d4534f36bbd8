#include "core/pi_bsm.hpp"

#include <algorithm>

#include "broadcast/bb_via_ba.hpp"
#include "broadcast/omission_ba.hpp"
#include "broadcast/quorums.hpp"

namespace bsm::core {

namespace {

constexpr std::uint32_t kStride = 2;  // virtual channels have delay 2 * Delta

[[nodiscard]] std::shared_ptr<const broadcast::Quorums> algo_quorums(std::uint32_t k,
                                                                     std::uint32_t ta) {
  return std::make_shared<const broadcast::ThresholdQuorums>(k, ta);
}

}  // namespace

std::uint32_t pi_bsm_list_channel(std::uint32_t k) { return 2 * k; }
std::uint32_t pi_bsm_suggest_channel(std::uint32_t k) { return 2 * k + 1; }

PiBsmSchedule PiBsmSchedule::compute(std::uint32_t ta) {
  PiBsmSchedule s;
  s.ta = ta;
  // Delta_King = 3(tA+1) steps; Delta_BA = Delta_King + 1; Delta_BB = 1 + Delta_BA.
  s.ba_steps = 3 * (ta + 1) + 1;
  s.bb_steps = 1 + s.ba_steps;
  // Pi_BB starts at round 0 (stride 2); Pi_BA instances start at round 1,
  // after one Delta of waiting for B's lists.
  const Round bb_done = kStride * s.bb_steps;
  const Round ba_done = 1 + kStride * s.ba_steps;
  s.algo_decision = std::max(bb_done, ba_done);
  s.other_decision = s.algo_decision + 1;
  s.total_rounds = s.other_decision + 1;
  return s;
}

PiBsmAlgo::PiBsmAlgo(const BsmConfig& cfg, Side algo_side, PartyId self,
                     matching::PreferenceList input)
    : cfg_(cfg),
      algo_side_(algo_side),
      self_(self),
      sched_(PiBsmSchedule::compute(algo_side == Side::Left ? cfg.tl : cfg.tr)),
      hub_(net::RelayMode::AuthTimed, kStride),
      algo_members_(side_members(algo_side, cfg.k)),
      other_members_(side_members(opposite(algo_side), cfg.k)) {
  require(side_of(self, cfg.k) == algo_side, "PiBsmAlgo: party is not on the algorithm side");
  require(matching::is_valid_preference_list(input, algo_side, cfg.k),
          "PiBsmAlgo: invalid input list");
  // Guarantees need tA < k/3 (enforced by the factory); direct construction
  // outside that region is allowed so the impossibility experiments can run
  // the protocol where the paper proves no protocol can work.

  const Bytes own = matching::encode_preference_list(input);
  const Bytes def_algo =
      matching::encode_preference_list(matching::default_preference_list(algo_side, cfg.k));
  auto quorums = algo_quorums(cfg.k, sched_.ta);

  // One Pi_BB per algorithm-side sender, among the algorithm side only.
  for (PartyId a : algo_members_) {
    hub_.add_instance(
        a, /*base=*/0, algo_members_,
        std::make_unique<broadcast::BBviaBA>(
            a, a == self ? own : Bytes{}, def_algo, sched_.ba_steps,
            [quorums](Bytes value) -> std::unique_ptr<broadcast::Instance> {
              return std::make_unique<broadcast::OmissionBA>(std::move(value), quorums);
            }));
  }
  hub_.add_mailbox(pi_bsm_list_channel(cfg.k));
}

void PiBsmAlgo::on_round(net::Context& ctx, net::Inbox inbox) {
  hub_.ingest(ctx, inbox);

  if (ctx.round() == 1) {
    // One Delta has passed: fix the received B lists and join one Pi_BA per
    // B party (default list for the silent or garbled ones).
    // The mailbox's bodies live for this round; the lists are copied.
    std::map<PartyId, Bytes> received;
    for (const auto& msg : hub_.take_mailbox(pi_bsm_list_channel(cfg_.k))) {
      if (std::find(other_members_.begin(), other_members_.end(), msg.from) ==
          other_members_.end()) {
        continue;
      }
      received.try_emplace(msg.from, msg.body.begin(), msg.body.end());
    }
    const Side other_side = opposite(algo_side_);
    const Bytes def_other =
        matching::encode_preference_list(matching::default_preference_list(other_side, cfg_.k));
    auto quorums = algo_quorums(cfg_.k, sched_.ta);
    for (PartyId b : other_members_) {
      Bytes value = def_other;
      if (auto it = received.find(b); it != received.end()) {
        // Only adopt bytes that parse as a valid list; otherwise the
        // publicly known default keeps honest inputs aligned.
        if (matching::decode_preference_list(it->second, other_side, cfg_.k)) {
          value = it->second;
        }
      }
      hub_.add_instance(b, /*base=*/1, algo_members_,
                        std::make_unique<broadcast::OmissionBA>(std::move(value), quorums));
    }
  }

  hub_.step_due(ctx);

  if (decided_ || ctx.round() != sched_.algo_decision) return;
  require(hub_.all_done(), "PiBsmAlgo: instances missed their schedule");

  // If any agreed value is bottom, an omission happened (all of B
  // byzantine): match nobody (paper Pi_bSM lines 6-7).
  matching::PreferenceProfile profile(cfg_.k);
  for (PartyId id = 0; id < cfg_.n(); ++id) {
    const auto& out = hub_.instance(id).output();
    if (!out.has_value()) {
      decided_ = true;
      decision_ = kNobody;
      return;
    }
    const Side side = side_of(id, cfg_.k);
    auto list = matching::decode_preference_list(*out, side, cfg_.k);
    profile.set(id, list ? std::move(*list) : matching::default_preference_list(side, cfg_.k));
  }

  matching_ = matching::gale_shapley(profile).matching;
  decision_ = matching_[self_];
  decided_ = true;

  // Tell each B party whom to match according to M.
  for (PartyId b : other_members_) {
    Writer w;
    w.u32(matching_[b]);
    hub_.send_raw(ctx, pi_bsm_suggest_channel(cfg_.k), b, w.data());
  }
}

PiBsmOther::PiBsmOther(const BsmConfig& cfg, Side algo_side, PartyId self,
                       matching::PreferenceList input, SuggestionPolicy policy)
    : cfg_(cfg),
      algo_side_(algo_side),
      self_(self),
      sched_(PiBsmSchedule::compute(algo_side == Side::Left ? cfg.tl : cfg.tr)),
      router_(net::RelayMode::AuthTimed),
      input_(std::move(input)),
      policy_(policy) {
  require(side_of(self, cfg.k) == opposite(algo_side),
          "PiBsmOther: party is not on the opposite side");
  require(matching::is_valid_preference_list(input_, side_of(self, cfg.k), cfg.k),
          "PiBsmOther: invalid input list");
}

void PiBsmOther::on_round(net::Context& ctx, net::Inbox inbox) {
  // Forwarding duty (Pi_bSM line 1 for R) and application-message decode.
  // `msgs` views the router's buffer, which only the next route() reuses.
  const std::span<const net::AppMsg> msgs = router_.route(ctx, inbox);

  if (ctx.round() == 0) {
    // Send our preference list to every algorithm-side party.
    Writer w;
    w.u32(pi_bsm_list_channel(cfg_.k));
    w.bytes(matching::encode_preference_list(input_));
    router_.broadcast(ctx, side_members(algo_side_, cfg_.k), w.data());
  }

  for (const auto& msg : msgs) {
    Reader r(msg.body);
    const std::uint32_t channel = r.u32();
    const ByteView inner = r.bytes_view();
    if (!r.done() || channel != pi_bsm_suggest_channel(cfg_.k)) continue;
    if (side_of(msg.from, cfg_.k) != algo_side_) continue;
    Reader ir(inner);
    const PartyId partner = ir.u32();
    if (!ir.done()) continue;
    if (suggestions_.try_emplace(msg.from, partner).second) {
      arrival_order_.push_back(msg.from);
    }
  }

  if (ctx.round() != sched_.other_decision || decided_) return;

  const auto plausible = [&](PartyId partner) {
    return partner < cfg_.n() && side_of(partner, cfg_.k) == algo_side_;
  };

  if (policy_ == SuggestionPolicy::FirstReceived) {
    // Ablation-only: trust whoever spoke first.
    for (PartyId from : arrival_order_) {
      if (plausible(suggestions_[from])) {
        decision_ = suggestions_[from];
        break;
      }
    }
    decided_ = true;
    return;
  }

  // Adopt the most common suggestion (ties: smallest partner id), ignoring
  // suggestions that are not algorithm-side parties.
  std::map<PartyId, std::uint32_t> tally;
  for (const auto& [from, partner] : suggestions_) {
    if (plausible(partner)) ++tally[partner];
  }
  PartyId best = kNobody;
  std::uint32_t best_count = 0;
  for (const auto& [partner, count] : tally) {
    if (count > best_count) {
      best = partner;
      best_count = count;
    }
  }
  decision_ = best;
  decided_ = true;
}

}  // namespace bsm::core

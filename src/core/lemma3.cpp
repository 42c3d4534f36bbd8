#include "core/lemma3.hpp"

#include <algorithm>
#include <functional>

#include "common/codec.hpp"

namespace bsm::core {

namespace {

constexpr std::uint8_t kFrameTag = 0xD3;

/// Balanced split: group j covers big side-indices [j*K/d, (j+1)*K/d).
[[nodiscard]] std::uint32_t group_of_index(std::uint32_t big_k, std::uint32_t d,
                                           std::uint32_t idx) {
  // Smallest j with (j+1)*K/d > idx; d is tiny, a scan is clearest.
  for (std::uint32_t j = 0; j < d; ++j) {
    if (idx < (j + 1) * big_k / d) return j;
  }
  return d - 1;
}

[[nodiscard]] Bytes wrap(PartyId from_big, PartyId to_big, ByteView payload) {
  Writer w;
  w.u8(kFrameTag);
  w.u32(from_big);
  w.u32(to_big);
  w.bytes(payload);
  return w.take();
}

/// A decoded frame; `payload` is a view into the wrapped bytes.
struct Frame {
  PartyId from_big;
  PartyId to_big;
  ByteView payload;
};

[[nodiscard]] std::optional<Frame> unwrap(ByteView bytes) {
  Reader r(bytes);
  if (r.u8() != kFrameTag) return std::nullopt;
  Frame f;
  f.from_big = r.u32();
  f.to_big = r.u32();
  f.payload = r.bytes_view();
  if (!r.done()) return std::nullopt;
  return f;
}

/// The big-network view handed to an inner process: big self id, big
/// topology, big PKI, with sends routed back through the simulator.
class BigContext final : public net::Context {
 public:
  using SendFn = std::function<void(PartyId, ByteView)>;

  BigContext(PartyId self_big, Round round, const net::Topology& topo, const crypto::Pki& pki,
             SendFn send)
      : self_(self_big), round_(round), topo_(&topo), pki_(&pki),
        signer_(pki.signer_for(self_big)), send_(std::move(send)) {}

  void send(PartyId to, ByteView payload) override {
    const bool channel = to == self_ || topo_->connected(self_, to);
    require(channel, "Lemma3 BigContext: inner process used a nonexistent big channel");
    send_(to, payload);
  }
  [[nodiscard]] Round round() const override { return round_; }
  [[nodiscard]] PartyId self() const override { return self_; }
  [[nodiscard]] const net::Topology& topology() const override { return *topo_; }
  [[nodiscard]] const crypto::Signer& signer() const override { return signer_; }
  [[nodiscard]] const crypto::Pki& pki() const override { return *pki_; }

 private:
  PartyId self_;
  Round round_;
  const net::Topology* topo_;
  const crypto::Pki* pki_;
  crypto::Signer signer_;
  SendFn send_;
};

}  // namespace

PartyId lemma3_owner(std::uint32_t big_k, std::uint32_t d, PartyId big) {
  const Side side = side_of(big, big_k);
  const std::uint32_t j = group_of_index(big_k, d, side_index(big, big_k));
  return side == Side::Left ? j : d + j;
}

PartyId lemma3_representative(std::uint32_t big_k, std::uint32_t d, PartyId small) {
  const Side side = side_of(small, d);
  const std::uint32_t j = side_index(small, d);
  const std::uint32_t idx = j * big_k / d;  // start of the group's range
  return side == Side::Left ? idx : big_k + idx;
}

matching::PreferenceList lemma3_expand_list(const matching::PreferenceList& small,
                                            PartyId small_self, std::uint32_t big_k,
                                            std::uint32_t d) {
  require(matching::is_valid_preference_list(small, side_of(small_self, d), d),
          "lemma3_expand_list: invalid small list");
  matching::PreferenceList big;
  big.reserve(big_k);
  std::vector<bool> used(2 * big_k, false);
  for (PartyId small_candidate : small) {
    const PartyId rep = lemma3_representative(big_k, d, small_candidate);
    big.push_back(rep);
    used[rep] = true;
  }
  const Side target = opposite(side_of(small_self, d));
  for (PartyId candidate : side_members(target, big_k)) {
    if (!used[candidate]) big.push_back(candidate);
  }
  return big;
}

GroupSimulation::GroupSimulation(const BsmConfig& big, const ProtocolSpec& big_proto,
                                 std::uint32_t d, PartyId small_self,
                                 matching::PreferenceList small_input,
                                 std::uint64_t big_pki_seed)
    : big_(big),
      d_(d),
      self_small_(small_self),
      representative_(lemma3_representative(big.k, d, small_self)),
      big_topo_(big.topology, big.k),
      big_pki_(std::make_shared<const crypto::Pki>(big.n(), big_pki_seed)) {
  require(d >= 1 && d <= big.k, "GroupSimulation: need 0 < d <= K");
  const Side side = side_of(small_self, d);
  const matching::PreferenceList rep_list =
      lemma3_expand_list(small_input, small_self, big.k, d);

  for (PartyId big_id : side_members(side, big.k)) {
    if (lemma3_owner(big.k, d, big_id) != small_self) continue;
    matching::PreferenceList input = big_id == representative_
                                         ? rep_list
                                         : matching::default_preference_list(side, big.k);
    members_.emplace(big_id, make_bsm_process(big_, big_proto, big_id, std::move(input)));
  }
}

void GroupSimulation::on_round(net::Context& ctx, net::Inbox inbox) {
  // Assemble each member's big inbox: last round's intra-group messages
  // (whose bytes `internal` keeps alive this round) plus unwrapped frames
  // from the other simulators.
  std::map<PartyId, std::vector<net::Envelope>> big_inbox;
  const std::vector<Internal> internal = std::move(internal_);
  internal_.clear();
  for (const Internal& m : internal) {
    big_inbox[m.to].push_back(net::Envelope{m.from, m.to, m.round, m.payload});
  }
  for (const auto& env : inbox) {
    const auto frame = unwrap(env.payload);
    if (!frame) continue;
    // Authenticated channels carry over: the claimed big sender must be
    // simulated by the real sender, and the target by us.
    if (frame->from_big >= big_.n() || frame->to_big >= big_.n()) continue;
    if (lemma3_owner(big_.k, d_, frame->from_big) != env.from) continue;
    if (lemma3_owner(big_.k, d_, frame->to_big) != self_small_) continue;
    big_inbox[frame->to_big].push_back(
        net::Envelope{frame->from_big, frame->to_big, env.sent_round, frame->payload});
  }
  for (auto& [big_id, envs] : big_inbox) {
    std::stable_sort(envs.begin(), envs.end(),
                     [](const net::Envelope& a, const net::Envelope& b) { return a.from < b.from; });
  }

  for (auto& [big_id, process] : members_) {
    BigContext big_ctx(
        big_id, ctx.round(), big_topo_, *big_pki_,
        [&, member = big_id](PartyId to_big, ByteView payload) {
          const PartyId owner = lemma3_owner(big_.k, d_, to_big);
          if (owner == self_small_) {
            Internal m{member, to_big, ctx.round(), Bytes(payload.begin(), payload.end())};
            internal_.push_back(std::move(m));
          } else {
            ctx.send(owner, wrap(member, to_big, payload));
          }
        });
    process->on_round(big_ctx, big_inbox[big_id]);
  }
}

bool GroupSimulation::decided() const {
  return members_.at(representative_)->decided();
}

PartyId GroupSimulation::decision() const {
  const PartyId big_match = members_.at(representative_)->decision();
  if (big_match == kNobody || big_match >= big_.n()) return kNobody;
  // Output the small party whose representative our representative matched;
  // a match with a non-representative maps to "nobody" (Lemma 3's rule).
  const PartyId owner = lemma3_owner(big_.k, d_, big_match);
  return lemma3_representative(big_.k, d_, owner) == big_match ? owner : kNobody;
}

}  // namespace bsm::core

#include "adversary/shims.hpp"

#include "common/codec.hpp"

namespace bsm::adversary {

FilteringContext::SendFilter budgeted_omission_filter(core::PartySet targets,
                                                      std::uint32_t budget) {
  auto remaining = std::make_shared<std::uint32_t>(budget);
  return [targets = std::move(targets), remaining](PartyId to, ByteView) {
    if (!targets.contains(to) || *remaining == 0) return true;
    --*remaining;
    return false;
  };
}

namespace {

// Frame marker for world-tagged traffic between conspirators.
constexpr std::uint8_t kWorldTag = 0xB7;

[[nodiscard]] Bytes wrap_world(int world, ByteView payload) {
  Writer w;
  w.u8(kWorldTag);
  w.u8(static_cast<std::uint8_t>(world));
  w.bytes(payload);
  return w.take();
}

/// The world and inner payload of a world-tagged frame; the inner payload
/// is a view into `payload`.
[[nodiscard]] std::optional<std::pair<int, ByteView>> unwrap_world(ByteView payload) {
  Reader r(payload);
  if (r.u8() != kWorldTag) return std::nullopt;
  const int world = r.u8();
  const ByteView inner = r.bytes_view();
  if (!r.done() || world > 1) return std::nullopt;
  return std::make_pair(world, inner);
}

}  // namespace

SplitBrain::SplitBrain(std::unique_ptr<net::Process> instance0,
                       std::unique_ptr<net::Process> instance1, GroupOf group,
                       std::set<PartyId> conspirators)
    : group_(std::move(group)), conspirators_(std::move(conspirators)) {
  require(instance0 != nullptr && instance1 != nullptr, "SplitBrain: two instances required");
  instances_[0] = std::move(instance0);
  instances_[1] = std::move(instance1);
}

void SplitBrain::on_round(net::Context& ctx, net::Inbox inbox) {
  // Partition the inbox into the two simulated worlds. Last round's
  // self-sends come first; `looped` keeps their bytes alive this round.
  std::vector<SelfSend> looped[2];
  std::vector<net::Envelope> world_inbox[2];
  for (int w = 0; w < 2; ++w) {
    looped[w] = std::move(self_loop_[w]);
    self_loop_[w].clear();
    for (const SelfSend& s : looped[w]) {
      world_inbox[w].push_back(net::Envelope{ctx.self(), ctx.self(), s.round, s.payload});
    }
  }
  for (const auto& env : inbox) {
    if (env.from == ctx.self()) continue;  // own sends are kept in self_loop_
    if (conspirators_.contains(env.from)) {
      if (auto unwrapped = unwrap_world(env.payload)) {
        auto tagged = env;
        tagged.payload = unwrapped->second;
        tagged.payload_digest = 0;  // digest covered the wrapped bytes
        world_inbox[unwrapped->first].push_back(tagged);
      }
      continue;
    }
    const int w = group_(env.from);
    if (w == 0 || w == 1) world_inbox[w].push_back(env);
  }

  for (int world = 0; world < 2; ++world) {
    FilteringContext shim(ctx, [this, world, &ctx](PartyId to, ByteView payload) {
      if (to == ctx.self()) {
        self_loop_[world].push_back({ctx.round(), Bytes(payload.begin(), payload.end())});
        return false;
      }
      if (conspirators_.contains(to)) {
        // Deliver out-of-band with a world tag via the base context; the
        // shim itself returns false so the untagged copy is suppressed.
        ctx.send(to, wrap_world(world, payload));
        return false;
      }
      return group_(to) == world;
    });
    instances_[world]->on_round(shim, world_inbox[world]);
  }
}

}  // namespace bsm::adversary

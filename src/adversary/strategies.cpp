#include "adversary/strategies.hpp"

namespace bsm::adversary {

void RandomNoise::on_round(net::Context& ctx, net::Inbox) {
  const auto neighbors = ctx.topology().neighbors(ctx.self());
  if (neighbors.empty()) return;
  for (std::uint32_t i = 0; i < burst_; ++i) {
    const PartyId to = neighbors[rng_.below(neighbors.size())];
    ctx.send(to, rng_.random_bytes(1 + rng_.below(max_len_)));
  }
}

void Replayer::on_round(net::Context& ctx, net::Inbox inbox) {
  const auto neighbors = ctx.topology().neighbors(ctx.self());
  if (neighbors.empty()) return;
  for (const auto& env : inbox) {
    ctx.send(neighbors[cursor_++ % neighbors.size()], env.payload);
  }
}

}  // namespace bsm::adversary

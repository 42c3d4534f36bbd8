#include "net/relay.hpp"

#include <algorithm>
#include <utility>

namespace bsm::net {

namespace {

// Transport frame tags.
constexpr std::uint8_t kDirect = 0;
constexpr std::uint8_t kRelayReq = 1;
constexpr std::uint8_t kRelayFwd = 2;

/// First (src, id) table size; it doubles whenever it is half full.
constexpr std::size_t kFirstSlots = 16;

}  // namespace

const Bytes& RelayRouter::signed_content(PartyId src, PartyId dst, std::uint64_t id, Round tau,
                                         ByteView body) {
  signed_.truncate(0);
  signed_.str("relay");
  signed_.u32(src);
  signed_.u32(dst);
  signed_.u64(id);
  signed_.u32(tau);
  signed_.bytes(body);
  return signed_.data();
}

std::size_t RelayRouter::probe(PartyId src, std::uint64_t id) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash_combine(src, id)) & mask;
  while (slots_[i].src != kNobody && (slots_[i].src != src || slots_[i].id != id)) {
    i = (i + 1) & mask;
  }
  return i;
}

RelayRouter::Slot& RelayRouter::claim(std::size_t i, PartyId src, std::uint64_t id) {
  slots_[i] = Slot{src, false, kNone, id};
  if (2 * ++used_ <= slots_.size()) return slots_[i];
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(2 * slots_.size()));
  for (const Slot& slot : old) {
    if (slot.src != kNobody) slots_[probe(slot.src, slot.id)] = slot;
  }
  return slots_[probe(src, id)];
}

std::uint32_t RelayRouter::new_candidate(ByteView body) {
  std::uint32_t c = free_;
  if (c == kNone) {
    c = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  } else {
    free_ = pool_[c].next;
    pool_[c].voters.clear();
  }
  pool_[c].body.assign(body.begin(), body.end());
  pool_[c].next = kNone;
  return c;
}

void RelayRouter::send(Context& ctx, PartyId to, ByteView body) {
  const Topology& topo = ctx.topology();
  if (to == ctx.self() || topo.connected(ctx.self(), to)) {
    direct_.truncate(0);
    direct_.u8(kDirect);
    direct_.bytes(body);
    ctx.send(to, direct_.data());
    return;
  }

  require(mode_ != RelayMode::Direct, "RelayRouter: no channel and relaying disabled");
  const std::uint64_t id = next_id_++;
  const Round tau = ctx.round();

  Writer& w = request_;
  w.truncate(0);
  w.u8(kRelayReq);
  w.u32(to);
  w.u64(id);
  w.u32(tau);
  w.bytes(body);
  if (mode_ == RelayMode::AuthSigned || mode_ == RelayMode::AuthTimed) {
    ctx.signer().sign(signed_content(ctx.self(), to, id, tau, body)).encode(w);
  }

  // Hand the message to every common neighbour (for our topologies: the
  // entire opposite side, as in the paper's Lemmas 6/8/10). The neighbour
  // list per destination is memoized — topology and self are fixed for the
  // router's lifetime — in the same ascending order the scan produced.
  // The public API tolerated arbitrary destinations (the seed scan found
  // no common neighbour for an out-of-range id, because connected() is
  // bounds-checked) — keep that a true no-op and never size the memo
  // beyond the topology.
  if (to >= topo.n()) return;
  if (relays_to_.size() <= to) relays_to_.resize(topo.n());
  std::vector<PartyId>& relays = relays_to_[to];
  if (relays.empty()) {
    for (PartyId relay = 0; relay < topo.n(); ++relay) {
      if (topo.connected(ctx.self(), relay) && topo.connected(relay, to)) {
        relays.push_back(relay);
      }
    }
  }
  ctx.multicast(relays, w.data());
}

void RelayRouter::broadcast(Context& ctx, std::span<const PartyId> recipients, ByteView body) {
  const Topology& topo = ctx.topology();
  const PartyId self = ctx.self();
  const auto direct = [&](PartyId to) { return to == self || topo.connected(self, to); };
  direct_.truncate(0);
  direct_.u8(kDirect);
  direct_.bytes(body);
  for (std::size_t i = 0; i < recipients.size();) {
    if (!direct(recipients[i])) {
      send(ctx, recipients[i++], body);  // relay path: per-destination frame (unique id)
      continue;
    }
    // A maximal run of directly connected recipients is one multicast, so
    // a relayed recipient keeps its place in the send order.
    std::size_t end = i + 1;
    while (end < recipients.size() && direct(recipients[end])) ++end;
    ctx.multicast(recipients.subspan(i, end - i), direct_.data());
    i = end;
  }
}

std::span<const AppMsg> RelayRouter::route(Context& ctx, Inbox inbox) {
  out_.clear();
  out_.reserve(inbox.size());  // at most one message per envelope
  const Topology& topo = ctx.topology();
  const std::uint32_t k = topo.k();
  const PartyId self = ctx.self();

  for (const Envelope& env : inbox) {
    Reader r(env.payload);
    const std::uint8_t tag = r.u8();

    if (tag == kDirect) {
      const ByteView body = r.bytes_view();
      if (!r.done()) {
        ++rejected_;
        continue;
      }
      out_.emplace_back(env.from, body);
      continue;
    }

    if (tag == kRelayReq) {
      const PartyId dst = r.u32();
      const std::uint64_t id = r.u64();
      const Round tau = r.u32();
      const auto body_view = r.bytes_view();
      const PartyId src = env.from;  // channels are authenticated
      crypto::Signature sig;
      const bool auth = mode_ == RelayMode::AuthSigned || mode_ == RelayMode::AuthTimed;
      if (auth) sig = crypto::Signature::decode(r);
      if (!r.done() || dst == self || dst >= topo.n() || !topo.connected(self, dst)) {
        ++rejected_;
        continue;
      }
      if (auth && !ctx.pki().verify(src, signed_content(src, dst, id, tau, body_view), sig)) {
        ++rejected_;
        continue;
      }
      // The forwarded frame is the request frame with the tag swapped and
      // the source prepended (dst == the request's `to`, all other fields
      // verbatim) — patching the received bytes is byte-identical to the
      // re-encode it replaces.
      forward_.assign(1, kRelayFwd);
      append_u32_le(forward_, src);
      forward_.insert(forward_.end(), env.payload.begin() + 1, env.payload.end());
      ctx.send(dst, forward_);
      continue;
    }

    if (tag == kRelayFwd) {
      const PartyId src = r.u32();
      const PartyId dst = r.u32();
      const std::uint64_t id = r.u64();
      const Round tau = r.u32();
      const auto body_view = r.bytes_view();
      crypto::Signature sig;
      const bool auth = mode_ == RelayMode::AuthSigned || mode_ == RelayMode::AuthTimed;
      if (auth) sig = crypto::Signature::decode(r);
      if (!r.done() || dst != self || src >= topo.n()) {
        ++rejected_;
        continue;
      }
      if (slots_.empty()) slots_.resize(kFirstSlots);
      const std::size_t at = probe(src, id);
      if (slots_[at].accepted) continue;  // replay / duplicate

      if (mode_ == RelayMode::UnauthMajority) {
        // Count distinct forwarders vouching for byte-identical content.
        // Bodies are compared in full, never by digest: a byzantine relay
        // could otherwise forge a body that shares the honest one's
        // digest and collect the honest relays' votes for it. The body is
        // copied once per distinct content, not per copy, into a pooled
        // candidate.
        Slot& slot = slots_[at].src == kNobody ? claim(at, src, id) : slots_[at];
        std::uint32_t c = slot.candidates;
        while (c != kNone && !std::ranges::equal(pool_[c].body, body_view)) c = pool_[c].next;
        if (c == kNone) {
          c = new_candidate(body_view);
          pool_[c].next = slot.candidates;
          slot.candidates = c;
        }
        pool_[c].voters.insert(env.from);
        if (2 * pool_[c].voters.count() > k) {
          // The winning bytes equal this forward's body, which lives for
          // the round; the candidates go back to the pool.
          slot.accepted = true;
          while (slot.candidates != kNone) {
            const std::uint32_t done = slot.candidates;
            slot.candidates = pool_[done].next;
            pool_[done].next = free_;
            free_ = done;
          }
          out_.emplace_back(src, body_view);
        }
        continue;
      }

      if (!ctx.pki().verify(src, signed_content(src, dst, id, tau, body_view), sig)) {
        ++rejected_;
        continue;
      }
      if (mode_ == RelayMode::AuthTimed && ctx.round() > tau + 2) {
        ++rejected_;  // stale: outside the 2 * Delta window (Lemma 10)
        continue;
      }
      claim(at, src, id).accepted = true;
      out_.emplace_back(src, body_view);
      continue;
    }

    ++rejected_;  // unknown frame tag
  }
  return out_;
}

}  // namespace bsm::net

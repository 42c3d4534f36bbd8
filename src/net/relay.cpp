#include "net/relay.hpp"

#include <algorithm>

namespace bsm::net {

namespace {

// Transport frame tags.
constexpr std::uint8_t kDirect = 0;
constexpr std::uint8_t kRelayReq = 1;
constexpr std::uint8_t kRelayFwd = 2;

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

void RelayRouter::send(Context& ctx, PartyId to, const Bytes& body) {
  const Topology& topo = ctx.topology();
  if (to == ctx.self() || topo.connected(ctx.self(), to)) {
    Writer w;
    w.u8(kDirect);
    w.bytes(body);
    ctx.send(to, w.data());
    return;
  }

  require(mode_ != RelayMode::Direct, "RelayRouter: no channel and relaying disabled");
  const std::uint64_t id = next_id_++;
  const Round tau = ctx.round();

  Writer w;
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
  for (PartyId relay : relays) ctx.send(relay, w.data());
}

void RelayRouter::broadcast(Context& ctx, const std::vector<PartyId>& recipients,
                            const Bytes& body) {
  const Topology& topo = ctx.topology();
  const PartyId self = ctx.self();
  Writer direct;
  for (PartyId to : recipients) {
    if (to == self || topo.connected(self, to)) {
      if (direct.size() == 0) {
        direct.u8(kDirect);
        direct.bytes(body);
      }
      ctx.send(to, direct.data());
    } else {
      send(ctx, to, body);  // relay path: per-destination frame (unique id)
    }
  }
}

std::vector<AppMsg> RelayRouter::route(Context& ctx, Inbox inbox) {
  std::vector<AppMsg> out;
  out.reserve(inbox.size());
  const Topology& topo = ctx.topology();
  const std::uint32_t k = topo.k();
  const PartyId self = ctx.self();

  for (const Envelope& env : inbox) {
    Reader r(env.payload);
    const std::uint8_t tag = r.u8();

    if (tag == kDirect) {
      Bytes body = r.bytes();
      if (!r.done()) {
        ++rejected_;
        continue;
      }
      out.push_back(AppMsg{env.from, std::move(body)});
      continue;
    }

    if (tag == kRelayReq) {
      const PartyId dst = r.u32();
      const std::uint64_t id = r.u64();
      const Round tau = r.u32();
      const auto body_view = r.bytes_view();  // owned copy only if we must re-sign-check
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
      if (accepted_.contains({src, id})) continue;  // replay / duplicate

      if (mode_ == RelayMode::UnauthMajority) {
        // Count distinct forwarders vouching for byte-identical content.
        // Bodies are compared in full, never by digest: a byzantine relay
        // could otherwise forge a body that shares the honest one's
        // digest and collect the honest relays' votes for it. The body is
        // materialized once per distinct content, not per copy.
        auto& candidates = pending_[MajorityKey{src, id}];
        auto it = std::ranges::find_if(candidates, [&](const Candidate& c) {
          return std::ranges::equal(c.body, body_view);
        });
        if (it == candidates.end()) {
          candidates.push_back({Bytes(body_view.begin(), body_view.end()), {}});
          it = candidates.end() - 1;
        }
        it->voters.insert(env.from);
        if (2 * it->voters.count() > k) {
          accepted_.insert({src, id});
          out.push_back(AppMsg{src, std::move(it->body)});
          pending_.erase(MajorityKey{src, id});
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
      accepted_.insert({src, id});
      out.push_back(AppMsg{src, Bytes(body_view.begin(), body_view.end())});
      continue;
    }

    ++rejected_;  // unknown frame tag
  }
  return out;
}

}  // namespace bsm::net

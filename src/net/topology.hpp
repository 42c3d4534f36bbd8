// The three communication topologies of the paper (Figure 1).
//
//  - FullyConnected: every pair of parties shares a channel.
//  - OneSided:       like FullyConnected but parties within L cannot talk
//                    to each other directly.
//  - Bipartite:      only pairs in L x R share a channel.
//
// Channels are bidirectional and authenticated: the engine stamps the true
// sender on every envelope, so a receiver always knows who a (physical)
// message came from. Matching is always across sides regardless of which
// extra channels exist.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace bsm::net {

enum class TopologyKind : std::uint8_t { FullyConnected, OneSided, Bipartite };

[[nodiscard]] std::string to_string(TopologyKind kind);

class Topology {
 public:
  Topology(TopologyKind kind, std::uint32_t k);

  [[nodiscard]] TopologyKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] std::uint32_t n() const noexcept { return 2 * k_; }

  /// Physical channel between two distinct parties? Defined here: every
  /// send and every relay request checks it.
  [[nodiscard]] bool connected(PartyId a, PartyId b) const noexcept {
    if (a == b || a >= n() || b >= n()) return false;
    const Side sa = side_of(a, k_);
    const Side sb = side_of(b, k_);
    if (sa != sb) return true;  // cross-side channels exist in every topology
    switch (kind_) {
      case TopologyKind::FullyConnected: return true;
      case TopologyKind::OneSided: return sa == Side::Right;  // only R is internally connected
      case TopologyKind::Bipartite: return false;
    }
    return false;
  }

  /// All parties sharing a channel with `id`, ascending.
  [[nodiscard]] std::vector<PartyId> neighbors(PartyId id) const;

  /// True iff the members of `side` are pairwise connected.
  [[nodiscard]] bool side_connected(Side side) const noexcept;

 private:
  TopologyKind kind_;
  std::uint32_t k_;
};

}  // namespace bsm::net

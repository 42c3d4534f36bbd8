#include "net/topology.hpp"

namespace bsm::net {

std::string to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::FullyConnected: return "fully-connected";
    case TopologyKind::OneSided: return "one-sided";
    case TopologyKind::Bipartite: return "bipartite";
  }
  return "?";
}

Topology::Topology(TopologyKind kind, std::uint32_t k) : kind_(kind), k_(k) {
  require(k >= 1, "Topology: k must be at least 1");
}

std::vector<PartyId> Topology::neighbors(PartyId id) const {
  std::vector<PartyId> out;
  for (PartyId other = 0; other < n(); ++other) {
    if (connected(id, other)) out.push_back(other);
  }
  return out;
}

bool Topology::side_connected(Side side) const noexcept {
  switch (kind_) {
    case TopologyKind::FullyConnected: return true;
    case TopologyKind::OneSided: return side == Side::Right;
    case TopologyKind::Bipartite: return false;
  }
  return false;
}

}  // namespace bsm::net

// The byzantine stable matching problem instance description (Definition 1).
#pragma once

#include <cstdint>
#include <string>

#include "common/party_set.hpp"
#include "common/types.hpp"
#include "net/process.hpp"
#include "net/topology.hpp"

namespace bsm::core {

/// The largest market the library runs: a market's n = 2k parties must fit
/// one PartySet. assemble_run() refuses a larger k, and every bsm_cli
/// subcommand bounds its --k by this constant.
inline constexpr std::uint32_t kMaxK = PartySet::kCapacity / 2;

/// A bSM setting: topology, cryptographic assumptions, market size, and the
/// per-side corruption budgets the protocol must tolerate.
struct BsmConfig {
  net::TopologyKind topology = net::TopologyKind::FullyConnected;
  bool authenticated = false;
  std::uint32_t k = 0;   ///< parties per side (n = 2k)
  std::uint32_t tl = 0;  ///< corruption budget within L, in [0, k]
  std::uint32_t tr = 0;  ///< corruption budget within R, in [0, k]

  [[nodiscard]] std::uint32_t n() const noexcept { return 2 * k; }

  [[nodiscard]] std::string describe() const {
    return to_string(topology) + (authenticated ? "/auth" : "/unauth") + " k=" +
           std::to_string(k) + " tL=" + std::to_string(tl) + " tR=" + std::to_string(tr);
  }
};

/// Common interface of every bSM protocol process: after the protocol's
/// fixed running time, the party has decided on a partner or on nobody.
class BsmProcess : public net::Process {
 public:
  [[nodiscard]] virtual bool decided() const = 0;
  /// Partner's global id, or kNobody. Meaningful once decided().
  [[nodiscard]] virtual PartyId decision() const = 0;
};

}  // namespace bsm::core

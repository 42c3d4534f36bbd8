// The deterministic Gale-Shapley algorithm A_G-S (paper Theorem 1).
//
// Left parties propose in ascending id order; right parties hold their best
// proposal so far. The result is the L-optimal stable matching, computed in
// O(k^2) proposals. Determinism matters beyond aesthetics here: the bSM
// reductions have every honest party run A_G-S locally on an identical
// profile and rely on all of them obtaining the *same* matching.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "matching/preferences.hpp"

namespace bsm::matching {

/// A perfect matching: match[id] = partner's global id.
using Matching = std::vector<PartyId>;

struct GaleShapleyResult {
  Matching matching;            ///< size 2k; match[u] on the opposite side of u
  std::uint64_t proposals = 0;  ///< number of proposals issued (cost metric)
};

/// Run A_G-S on a complete profile. Requires profile.complete().
[[nodiscard]] GaleShapleyResult gale_shapley(const PreferenceProfile& profile);

}  // namespace bsm::matching

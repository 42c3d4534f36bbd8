// Validity and stability analysis of matchings.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "matching/gale_shapley.hpp"
#include "matching/preferences.hpp"

namespace bsm::matching {

/// Is `m` a perfect, symmetric, cross-side matching of all 2k parties?
[[nodiscard]] bool is_perfect_matching(const Matching& m, std::uint32_t k);

/// All blocking pairs (l, r) of a (possibly partial) matching: pairs that
/// strictly prefer each other over their current partners, where being
/// unmatched is worse than any listed partner.
[[nodiscard]] std::vector<std::pair<PartyId, PartyId>> blocking_pairs(
    const PreferenceProfile& profile, const Matching& m);

/// Perfect and with no blocking pair.
[[nodiscard]] bool is_stable(const PreferenceProfile& profile, const Matching& m);

/// Exhaustive enumeration of all stable matchings (test oracle; k <= 6).
[[nodiscard]] std::vector<Matching> all_stable_matchings(const PreferenceProfile& profile);

}  // namespace bsm::matching

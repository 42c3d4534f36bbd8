// The stable roommate problem — the paper's first "further research"
// direction (Section 6): a stable matching *within one set* of n agents,
// each ranking all others. Unlike two-sided stable matching, a solution
// may not exist; Irving's algorithm (1985) decides existence and finds a
// stable matching in O(n^2).
//
// This module provides Irving's algorithm plus stability analysis and a
// brute-force oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace bsm::matching {

/// Agent x's ranking of all other agents, most-preferred first
/// (length n - 1, containing every id != x exactly once).
using RoommatePreferences = std::vector<std::vector<PartyId>>;

/// match[x] = partner (or kNobody in partial matchings).
using RoommateMatching = std::vector<PartyId>;

/// Is `prefs` a well-formed profile for n agents (n even)?
[[nodiscard]] bool is_valid_roommate_profile(const RoommatePreferences& prefs);

/// Rank of candidate in x's original list; lower is better.
[[nodiscard]] std::uint32_t roommate_rank(const RoommatePreferences& prefs, PartyId x,
                                          PartyId candidate);

/// Irving's algorithm. Returns the stable matching, or nullopt when the
/// instance admits none.
[[nodiscard]] std::optional<RoommateMatching> stable_roommates(const RoommatePreferences& prefs);

/// All blocking pairs {x, y} of a (possibly partial) matching: both prefer
/// each other over their current partners; being unmatched is worst.
[[nodiscard]] std::vector<std::pair<PartyId, PartyId>> roommate_blocking_pairs(
    const RoommatePreferences& prefs, const RoommateMatching& m);

/// Perfect and free of blocking pairs.
[[nodiscard]] bool is_stable_roommates(const RoommatePreferences& prefs,
                                       const RoommateMatching& m);

/// Exhaustive oracle: all stable matchings (test use; n <= 10).
[[nodiscard]] std::vector<RoommateMatching> all_stable_roommate_matchings(
    const RoommatePreferences& prefs);

/// Uniformly random profile for n agents (n even).
[[nodiscard]] RoommatePreferences random_roommate_profile(std::uint32_t n, std::uint64_t seed);

}  // namespace bsm::matching

#include "matching/stability.hpp"

#include <algorithm>
#include <numeric>

namespace bsm::matching {

bool is_perfect_matching(const Matching& m, std::uint32_t k) {
  if (m.size() != 2 * k) return false;
  for (PartyId u = 0; u < 2 * k; ++u) {
    const PartyId v = m[u];
    if (v >= 2 * k || side_of(v, k) == side_of(u, k)) return false;
    if (m[v] != u) return false;
  }
  return true;
}

std::vector<std::pair<PartyId, PartyId>> blocking_pairs(const PreferenceProfile& profile,
                                                        const Matching& m) {
  const std::uint32_t k = profile.k();
  require(m.size() == 2 * k, "blocking_pairs: matching size mismatch");
  std::vector<std::pair<PartyId, PartyId>> out;
  for (PartyId l = 0; l < k; ++l) {
    for (PartyId r = k; r < 2 * k; ++r) {
      if (m[l] == r) continue;
      // Unmatched parties prefer any listed candidate over being alone.
      const bool l_wants = m[l] == kNobody || profile.prefers_unchecked(l, r, m[l]);
      const bool r_wants = m[r] == kNobody || profile.prefers_unchecked(r, l, m[r]);
      if (l_wants && r_wants) out.emplace_back(l, r);
    }
  }
  return out;
}

bool is_stable(const PreferenceProfile& profile, const Matching& m) {
  return is_perfect_matching(m, profile.k()) && blocking_pairs(profile, m).empty();
}

std::vector<Matching> all_stable_matchings(const PreferenceProfile& profile) {
  const std::uint32_t k = profile.k();
  std::vector<PartyId> perm(k);
  std::iota(perm.begin(), perm.end(), k);  // right-side ids
  std::sort(perm.begin(), perm.end());

  std::vector<Matching> out;
  do {
    Matching m(2 * k, kNobody);
    for (PartyId l = 0; l < k; ++l) {
      m[l] = perm[l];
      m[perm[l]] = l;
    }
    if (is_stable(profile, m)) out.push_back(m);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

}  // namespace bsm::matching

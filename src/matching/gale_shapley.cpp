#include "matching/gale_shapley.hpp"

#include <deque>

namespace bsm::matching {

GaleShapleyResult gale_shapley(const PreferenceProfile& profile) {
  require(profile.complete(), "gale_shapley: profile must be complete");
  const std::uint32_t k = profile.k();

  GaleShapleyResult result;
  result.matching.assign(2 * k, kNobody);

  // next_proposal[l] = index into l's list of the next candidate to try.
  std::vector<std::uint32_t> next_proposal(k, 0);
  std::deque<PartyId> free_left;
  for (PartyId l = 0; l < k; ++l) free_left.push_back(l);

  // Right-side rank queries are O(1) via the profile's inverse-rank index,
  // so the k^2 proposals cost O(k^2) total. complete() above validates
  // every list once, so the loop queries the unchecked variants.
  while (!free_left.empty()) {
    const PartyId l = free_left.front();
    free_left.pop_front();
    require(next_proposal[l] < k, "gale_shapley: exhausted list (impossible for complete lists)");
    const PartyId r = profile.list(l)[next_proposal[l]++];
    ++result.proposals;

    const PartyId current = result.matching[r];
    if (current == kNobody) {
      result.matching[r] = l;
      result.matching[l] = r;
    } else if (profile.prefers_unchecked(r, l, current)) {
      // r divorces `current` and accepts l.
      result.matching[current] = kNobody;
      free_left.push_back(current);
      result.matching[r] = l;
      result.matching[l] = r;
    } else {
      free_left.push_back(l);  // rejected; l will propose further down its list
    }
  }
  return result;
}

}  // namespace bsm::matching

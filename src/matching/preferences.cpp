#include "matching/preferences.hpp"

#include <algorithm>

namespace bsm::matching {

bool is_valid_preference_list(const PreferenceList& list, Side owner_side, std::uint32_t k) {
  if (list.size() != k) return false;
  const Side target = opposite(owner_side);
  for (PartyId id : list) {
    if (id >= 2 * k || side_of(id, k) != target) return false;
  }
  // Duplicates, over local ids [0, k) in windows of a stack bitset: one
  // pass for any market whose profile fits in memory, and no allocation
  // at any k (the list is checked at every decode and profile insert).
  constexpr std::uint32_t kWindow = 4096;
  const PartyId base = target == Side::Left ? 0 : k;
  std::uint64_t seen[kWindow / 64];
  for (std::uint64_t lo = 0; lo < k; lo += kWindow) {
    const std::uint64_t width = std::min<std::uint64_t>(k - lo, kWindow);
    std::fill_n(seen, (width + 63) / 64, 0);
    for (PartyId id : list) {
      const std::uint64_t local = id - base - lo;
      if (local >= width) continue;
      const std::uint64_t bit = std::uint64_t{1} << (local & 63);
      if ((seen[local >> 6] & bit) != 0) return false;
      seen[local >> 6] |= bit;
    }
  }
  return true;
}

PreferenceList default_preference_list(Side owner_side, std::uint32_t k) {
  return side_members(opposite(owner_side), k);
}

Bytes encode_preference_list(const PreferenceList& list) {
  Writer w;
  w.u32_vec(list);
  return w.take();
}

std::optional<PreferenceList> decode_preference_list(const Bytes& bytes, Side owner_side,
                                                     std::uint32_t k) {
  Reader r(bytes);
  PreferenceList list = r.u32_vec();
  if (!r.done() || !is_valid_preference_list(list, owner_side, k)) return std::nullopt;
  return list;
}

void PreferenceProfile::set(PartyId id, PreferenceList list) {
  require(id < lists_.size(), "PreferenceProfile::set: bad id");
  require(is_valid_preference_list(list, side_of(id, k_), k_),
          "PreferenceProfile::set: invalid list");
  lists_[id] = std::move(list);
  inverse_[id].clear();  // invalidate the party's inverse-rank index
}

const PreferenceList& PreferenceProfile::list(PartyId id) const {
  require(id < lists_.size(), "PreferenceProfile::list: bad id");
  return lists_[id];
}

void PreferenceProfile::build_inverse(PartyId id) const {
  auto& inv = inverse_[id];
  inv.assign(k_, UINT32_MAX);
  const auto& l = lists_[id];
  for (std::uint32_t i = 0; i < l.size(); ++i) {
    inv[l[i] < k_ ? l[i] : l[i] - k_] = i;
  }
}

bool PreferenceProfile::complete() const {
  for (PartyId id = 0; id < lists_.size(); ++id) {
    if (!is_valid_preference_list(lists_[id], side_of(id, k_), k_)) return false;
  }
  return true;
}

}  // namespace bsm::matching

// Preference lists and profiles for a two-sided market of 2k parties.
//
// A preference list of party u is a permutation of the *global ids* of the
// opposite side, most-preferred first. A profile holds one list per party.
// Profiles travel over the network, so encoding, decoding, and validation
// against byzantine-crafted bytes live here.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/codec.hpp"
#include "common/types.hpp"

namespace bsm::matching {

/// Permutation of the opposite side's global ids, most-preferred first.
using PreferenceList = std::vector<PartyId>;

/// True iff `list` is a permutation of the side opposite to `owner_side`.
[[nodiscard]] bool is_valid_preference_list(const PreferenceList& list, Side owner_side,
                                            std::uint32_t k);

/// Canonical fallback list (ascending opposite-side ids); used whenever a
/// party's broadcast list is missing or malformed — the paper assigns
/// byzantine non-senders "a pre-defined default preference list".
[[nodiscard]] PreferenceList default_preference_list(Side owner_side, std::uint32_t k);

/// Wire encoding of a list.
[[nodiscard]] Bytes encode_preference_list(const PreferenceList& list);

/// Parse and validate; nullopt on malformed or invalid input.
[[nodiscard]] std::optional<PreferenceList> decode_preference_list(const Bytes& bytes,
                                                                   Side owner_side,
                                                                   std::uint32_t k);

/// One preference list per party (index = global id).
class PreferenceProfile {
 public:
  PreferenceProfile() = default;
  explicit PreferenceProfile(std::uint32_t k) : k_(k), lists_(2 * k), inverse_(2 * k) {}

  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] std::uint32_t n() const noexcept { return 2 * k_; }

  void set(PartyId id, PreferenceList list);
  [[nodiscard]] const PreferenceList& list(PartyId id) const;

  /// Rank of `candidate` in `id`'s list: 0 = most preferred. Parties always
  /// prefer any listed candidate over being alone. O(1): served from a
  /// lazily-built inverse-rank index (built on the first rank query per
  /// party, invalidated by set()). Defined inline — this is the
  /// Gale-Shapley / stability-scan hot path and must fold into the caller's
  /// loop like the flat rank table it replaced.
  [[nodiscard]] std::uint32_t rank(PartyId id, PartyId candidate) const {
    require(id < lists_.size(), "PreferenceProfile::rank: bad id");
    const auto& inv = inverse_for(id);
    const std::uint32_t local = candidate < k_ ? candidate : candidate - k_;
    require(candidate < 2 * k_ && side_of(candidate, k_) != side_of(id, k_) &&
                local < inv.size() && inv[local] != UINT32_MAX,
            "PreferenceProfile::rank: candidate not in list");
    return inv[local];
  }

  /// Does `id` strictly prefer `a` over `b`? The index is fetched once and
  /// both candidates validated against it — not two rank() calls, which
  /// would pay the id checks and the lazy-build branch twice per proposal.
  [[nodiscard]] bool prefers(PartyId id, PartyId a, PartyId b) const {
    require(id < lists_.size(), "PreferenceProfile::rank: bad id");
    const auto& inv = inverse_for(id);
    const Side own = side_of(id, k_);
    const std::uint32_t la = a < k_ ? a : a - k_;
    const std::uint32_t lb = b < k_ ? b : b - k_;
    require(a < 2 * k_ && side_of(a, k_) != own && la < inv.size() && inv[la] != UINT32_MAX,
            "PreferenceProfile::rank: candidate not in list");
    require(b < 2 * k_ && side_of(b, k_) != own && lb < inv.size() && inv[lb] != UINT32_MAX,
            "PreferenceProfile::rank: candidate not in list");
    return inv[la] < inv[lb];
  }

  /// Hot-loop variant of prefers() with the argument validation elided:
  /// two index loads and a compare, like the flat rank table it replaced.
  /// Preconditions (caller's responsibility): `id` has a valid list and
  /// `a`/`b` are in-range opposite-side ids — exactly what gale_shapley()
  /// establishes once via complete() before the proposal loop, instead of
  /// re-checking on each of its O(k^2) queries.
  [[nodiscard]] bool prefers_unchecked(PartyId id, PartyId a, PartyId b) const {
    const auto& inv = inverse_for(id);
    return inv[a < k_ ? a : a - k_] < inv[b < k_ ? b : b - k_];
  }

  /// All lists present and valid?
  [[nodiscard]] bool complete() const;

 private:
  // Hot: one empty-check on the index row itself — build_inverse() leaves a
  // non-empty row even for an unset list (all UINT32_MAX), so the branch
  // settles after the first query and never touches lists_ again.
  [[nodiscard]] const std::vector<std::uint32_t>& inverse_for(PartyId id) const {
    auto& inv = inverse_[id];
    if (inv.empty()) build_inverse(id);
    return inv;
  }

  void build_inverse(PartyId id) const;

  std::uint32_t k_ = 0;
  std::vector<PreferenceList> lists_;
  // inverse_[id][candidate mod k] = rank of candidate in id's list (every
  // list ranks exactly one side, so candidate ids collapse onto [0, k)).
  // Built lazily per party by rank(); set() clears the party's entry. Not
  // safe to race a *first* rank query across threads — profiles are
  // per-worker by construction (see core::SweepArena).
  mutable std::vector<std::vector<std::uint32_t>> inverse_;
};

}  // namespace bsm::matching

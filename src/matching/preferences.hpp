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
  explicit PreferenceProfile(std::uint32_t k)
      : k_(k), lists_(2 * k), inverse_(std::size_t{2} * k * k, UINT32_MAX) {}

  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] std::uint32_t n() const noexcept { return 2 * k_; }

  void set(PartyId id, PreferenceList list);
  [[nodiscard]] const PreferenceList& list(PartyId id) const;

  /// Rank of `candidate` in `id`'s list: 0 = most preferred. Parties always
  /// prefer any listed candidate over being alone. O(1): served from the
  /// inverse-rank index that set() fills. Defined inline — this is the
  /// Gale-Shapley / stability-scan hot path and must fold into the caller's
  /// loop.
  [[nodiscard]] std::uint32_t rank(PartyId id, PartyId candidate) const {
    require(id < lists_.size(), "PreferenceProfile::rank: bad id");
    const std::uint32_t* inv = row(id);
    require(candidate < 2 * k_ && side_of(candidate, k_) != side_of(id, k_) &&
                inv[local(candidate)] != UINT32_MAX,
            "PreferenceProfile::rank: candidate not in list");
    return inv[local(candidate)];
  }

  /// Does `id` strictly prefer `a` over `b`? The row is fetched once and
  /// both candidates validated against it — not two rank() calls, which
  /// would pay the id checks twice per proposal.
  [[nodiscard]] bool prefers(PartyId id, PartyId a, PartyId b) const {
    require(id < lists_.size(), "PreferenceProfile::rank: bad id");
    const std::uint32_t* inv = row(id);
    const Side own = side_of(id, k_);
    require(a < 2 * k_ && side_of(a, k_) != own && inv[local(a)] != UINT32_MAX,
            "PreferenceProfile::rank: candidate not in list");
    require(b < 2 * k_ && side_of(b, k_) != own && inv[local(b)] != UINT32_MAX,
            "PreferenceProfile::rank: candidate not in list");
    return inv[local(a)] < inv[local(b)];
  }

  /// Hot-loop variant of prefers() with the argument validation elided:
  /// two index loads and a compare.
  /// Preconditions (caller's responsibility): `id` has a valid list and
  /// `a`/`b` are in-range opposite-side ids — exactly what gale_shapley()
  /// establishes once via complete() before the proposal loop, instead of
  /// re-checking on each of its O(k^2) queries.
  [[nodiscard]] bool prefers_unchecked(PartyId id, PartyId a, PartyId b) const {
    const std::uint32_t* inv = row(id);
    return inv[local(a)] < inv[local(b)];
  }

  /// All lists present and valid?
  [[nodiscard]] bool complete() const;

 private:
  /// Every list ranks exactly one side, so candidate ids collapse onto [0, k).
  [[nodiscard]] std::uint32_t local(PartyId candidate) const noexcept {
    return candidate < k_ ? candidate : candidate - k_;
  }
  [[nodiscard]] const std::uint32_t* row(PartyId id) const noexcept {
    return inverse_.data() + std::size_t{id} * k_;
  }

  std::uint32_t k_ = 0;
  std::vector<PreferenceList> lists_;
  // inverse_[id * k + local(candidate)] = rank of candidate in id's list;
  // UINT32_MAX in every slot of a party whose list was never set.
  std::vector<std::uint32_t> inverse_;
};

}  // namespace bsm::matching

// Preference *views*: the query surface the matching algorithms run over.
//
// A view answers rank / prefers / list-position queries for a complete
// two-sided profile without prescribing a storage layout. Two
// implementations exist:
//
//  - MaterializedView wraps a PreferenceProfile (explicit lists; rank is
//    O(1) via the profile's lazily-built inverse-rank index).
//  - LazyProfile never stores a list at all: party u's preference order is
//    a keyed pseudorandom permutation of the opposite side, evaluated (and
//    inverted) on demand from seeded per-party streams. Every query is
//    O(1) time and the whole object is O(1) memory, so a matching over
//    n = 10^6 parties runs in O(n) live bytes — no n x k table is ever
//    built. This is the big-n workload generator: same seeded-RNG
//    discipline as matching::random_profile, but the "profile" is a pure
//    function of (k, seed, party, position).
//
// Determinism contract: LazyProfile(k, seed) denotes one fixed profile —
// at()/rank() are pure functions of (k, seed), so all honest parties (and
// all bench repeats, on any thread) observe the identical preference
// structure, exactly as they would from a materialized profile.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "matching/preferences.hpp"

namespace bsm::matching {

/// Keyed pseudorandom permutation of [0, m): a 4-round Feistel network over
/// the smallest even-bit domain covering m, cycle-walked back into [0, m).
/// Both directions are O(1) (expected < 4 Feistel evaluations per query),
/// which is what makes lazy rank queries possible: rank = inverse(element).
/// Not cryptographic — statistical quality only, like common/rng.hpp.
class SeededPermutation {
 public:
  SeededPermutation() = default;

  SeededPermutation(std::uint32_t m, std::uint64_t key) : m_(m) {
    require(m >= 1, "SeededPermutation: empty domain");
    // Even-bit Feistel domain 2^(2h) >= m with h minimal (h >= 1).
    std::uint32_t bits = 1;
    while ((std::uint64_t{1} << bits) < m) ++bits;
    half_bits_ = (bits + 1) / 2;
    half_mask_ = (std::uint64_t{1} << half_bits_) - 1;
    for (auto& rk : round_keys_) {
      key = splitmix64(key + 0x9e3779b97f4a7c15ULL);
      rk = key;
    }
  }

  [[nodiscard]] std::uint32_t size() const noexcept { return m_; }

  /// Element at position `pos` of the permutation; pos < m.
  [[nodiscard]] std::uint32_t forward(std::uint32_t pos) const noexcept {
    std::uint64_t x = pos;
    do {
      x = encrypt(x);
    } while (x >= m_);  // cycle-walk: bijection on the subdomain [0, m)
    return static_cast<std::uint32_t>(x);
  }

  /// Position of `element` in the permutation; element < m.
  [[nodiscard]] std::uint32_t inverse(std::uint32_t element) const noexcept {
    std::uint64_t x = element;
    do {
      x = decrypt(x);
    } while (x >= m_);
    return static_cast<std::uint32_t>(x);
  }

 private:
  static constexpr int kRounds = 4;

  [[nodiscard]] std::uint64_t f(std::uint64_t half, std::uint64_t rk) const noexcept {
    return splitmix64(rk ^ (half * 0x9e3779b97f4a7c15ULL)) & half_mask_;
  }

  [[nodiscard]] std::uint64_t encrypt(std::uint64_t x) const noexcept {
    std::uint64_t left = x >> half_bits_;
    std::uint64_t right = x & half_mask_;
    for (int r = 0; r < kRounds; ++r) {
      const std::uint64_t next = left ^ f(right, round_keys_[r]);
      left = right;
      right = next;
    }
    return (left << half_bits_) | right;
  }

  [[nodiscard]] std::uint64_t decrypt(std::uint64_t x) const noexcept {
    std::uint64_t left = x >> half_bits_;
    std::uint64_t right = x & half_mask_;
    for (int r = kRounds - 1; r >= 0; --r) {
      const std::uint64_t prev = right ^ f(left, round_keys_[r]);
      right = left;
      left = prev;
    }
    return (left << half_bits_) | right;
  }

  std::uint32_t m_ = 0;
  std::uint32_t half_bits_ = 0;
  std::uint64_t half_mask_ = 0;
  std::uint64_t round_keys_[kRounds] = {};
};

/// Materialized implementation of the view interface: thin adaptor over a
/// PreferenceProfile (which owns the O(1) inverse-rank index). Views are
/// only ever constructed over *complete* profiles (the view contract
/// above), so queries take the profile's unchecked fast path — per-query
/// validation belongs to PreferenceProfile's own rank()/prefers(), not to
/// the algorithms' inner loops.
class MaterializedView {
 public:
  explicit MaterializedView(const PreferenceProfile& profile) noexcept : profile_(&profile) {}

  [[nodiscard]] std::uint32_t k() const noexcept { return profile_->k(); }
  [[nodiscard]] std::uint32_t n() const noexcept { return profile_->n(); }

  /// `pos`-th most preferred candidate of `id` (0 best).
  [[nodiscard]] PartyId at(PartyId id, std::uint32_t pos) const { return profile_->list(id)[pos]; }

  [[nodiscard]] std::uint32_t rank(PartyId id, PartyId candidate) const {
    return profile_->rank_unchecked(id, candidate);
  }

  [[nodiscard]] bool prefers(PartyId id, PartyId a, PartyId b) const {
    return profile_->prefers_unchecked(id, a, b);
  }

  [[nodiscard]] PartyId favorite(PartyId id) const { return at(id, 0); }

 private:
  const PreferenceProfile* profile_;
};

/// Lazy two-sided profile: party u's list is a seeded permutation of the
/// opposite side, never materialized. O(1) per query, O(1) resident bytes.
class LazyProfile {
 public:
  LazyProfile(std::uint32_t k, std::uint64_t seed) : k_(k), seed_(seed) {
    require(k >= 1, "LazyProfile: k must be positive");
  }

  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] std::uint32_t n() const noexcept { return 2 * k_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// `pos`-th most preferred candidate of `id` (0 best); pos < k.
  [[nodiscard]] PartyId at(PartyId id, std::uint32_t pos) const {
    require(id < 2 * k_ && pos < k_, "LazyProfile::at: out of range");
    const std::uint32_t local = perm_for(id).forward(pos);
    return id < k_ ? k_ + local : local;  // opposite side's global id
  }

  /// Rank of `candidate` in `id`'s list (0 best); candidate must lie on the
  /// opposite side.
  [[nodiscard]] std::uint32_t rank(PartyId id, PartyId candidate) const {
    require(id < 2 * k_ && candidate < 2 * k_ && side_of(id, k_) != side_of(candidate, k_),
            "LazyProfile::rank: candidate not in list");
    const std::uint32_t local = candidate < k_ ? candidate : candidate - k_;
    return perm_for(id).inverse(local);
  }

  [[nodiscard]] bool prefers(PartyId id, PartyId a, PartyId b) const {
    return rank(id, a) < rank(id, b);
  }

  [[nodiscard]] PartyId favorite(PartyId id) const { return at(id, 0); }

  /// One party's full list, O(k) — decode/transport or tests, not the hot
  /// path.
  [[nodiscard]] PreferenceList list_of(PartyId id) const {
    PreferenceList list;
    list.reserve(k_);
    for (std::uint32_t pos = 0; pos < k_; ++pos) list.push_back(at(id, pos));
    return list;
  }

  /// The equivalent explicit profile, O(k^2) — the differential-test oracle
  /// and paper-scale interop; never call at big n.
  [[nodiscard]] PreferenceProfile materialize() const {
    PreferenceProfile profile(k_);
    for (PartyId id = 0; id < 2 * k_; ++id) profile.set(id, list_of(id));
    return profile;
  }

  /// Live heap bytes held by this object: always 0 — the memory-shape guard
  /// asserts a big-n matching run stays O(n) overall.
  [[nodiscard]] std::size_t bytes_resident() const noexcept { return 0; }

 private:
  [[nodiscard]] SeededPermutation perm_for(PartyId id) const noexcept {
    // Per-party keyed stream: the permutation is a pure function of
    // (seed, id), so queries need no shared state and no ordering.
    return SeededPermutation(k_, splitmix64(seed_ ^ (0xa076'1d64'78bd'642fULL * (id + 1))));
  }

  std::uint32_t k_;
  std::uint64_t seed_;
};

}  // namespace bsm::matching

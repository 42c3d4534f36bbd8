// Flat bitset over party ids — the allocation-free replacement for
// std::set<PartyId> in every broadcast inner loop.
//
// A PartySet is two 64-bit words covering ids [0, kCapacity) = [0, 128):
// every party of a k <= 64 market (core::kMaxK, core/problem.hpp, is
// derived from this capacity). Membership is one shift+mask, cardinality is
// two popcounts, and the side-restricted counts the product adversary
// structure needs ("how many of these holders are on side L?") are two
// popcounts over an AND with a precomputed side mask. The containers it
// replaces were rebuilt every protocol round; a PartySet is a trivially
// copyable value that never allocates, so the tally/quorum hot path
// performs zero allocations in steady state.
//
// insert() of an id >= kCapacity throws std::logic_error; contains() and
// erase() of such an id are no-ops (it can never be a member).
//
// Iteration order is ascending id (countr_zero sweep), which matches the
// iteration order of the std::set<PartyId> it replaces — any code that was
// order-sensitive stays byte-identical.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <type_traits>

#include "common/types.hpp"

namespace bsm::core {

class PartySet {
 public:
  /// Ids [0, kCapacity) are representable.
  static constexpr std::uint32_t kCapacity = 128;

  PartySet() noexcept = default;

  PartySet(std::initializer_list<PartyId> ids) {
    for (PartyId p : ids) insert(p);
  }

  /// The full set {0, ..., n-1}.
  [[nodiscard]] static PartySet universe(std::uint32_t n) { return range(0, n); }

  /// The contiguous set {lo, ..., hi-1} (a side mask, e.g. [k, 2k)).
  [[nodiscard]] static PartySet range(std::uint32_t lo, std::uint32_t hi) {
    PartySet s;
    for (std::uint32_t p = lo; p < hi; ++p) s.insert(p);
    return s;
  }

  void insert(PartyId p) {
    require(p < kCapacity, "PartySet: party id beyond the 128-id capacity");
    words_[p >> 6] |= std::uint64_t{1} << (p & 63);
  }

  void erase(PartyId p) noexcept {
    if (p < kCapacity) words_[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
  }

  [[nodiscard]] bool contains(PartyId p) const noexcept {
    return p < kCapacity && (words_[p >> 6] >> (p & 63)) & 1;
  }

  void clear() noexcept { words_ = {}; }

  [[nodiscard]] std::uint32_t count() const noexcept {
    return static_cast<std::uint32_t>(std::popcount(words_[0]) + std::popcount(words_[1]));
  }

  /// |this AND mask| without materializing the intersection.
  [[nodiscard]] std::uint32_t count_and(const PartySet& mask) const noexcept {
    return static_cast<std::uint32_t>(std::popcount(words_[0] & mask.words_[0]) +
                                      std::popcount(words_[1] & mask.words_[1]));
  }

  [[nodiscard]] bool empty() const noexcept { return (words_[0] | words_[1]) == 0; }

  /// Visit members in ascending id order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::uint32_t i = 0; i < words_.size(); ++i) {
      std::uint64_t w = words_[i];
      while (w != 0) {
        f(static_cast<PartyId>(i * 64 + static_cast<std::uint32_t>(std::countr_zero(w))));
        w &= w - 1;
      }
    }
  }

  [[nodiscard]] bool operator==(const PartySet&) const noexcept = default;

 private:
  std::array<std::uint64_t, kCapacity / 64> words_ = {};
};

static_assert(std::is_trivially_copyable_v<PartySet>);

}  // namespace bsm::core

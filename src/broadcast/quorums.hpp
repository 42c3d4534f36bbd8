// Quorum predicates abstracting over the adversary structure.
//
// Classic phase-king thresholds ("received from >= k - t parties", "more
// than t proposals") generalize to an arbitrary adversary structure Z:
//   received from >= k - t    ->   complement of the senders lies in Z
//   more than t               ->   the senders cannot all be corrupt
// The paper needs exactly two structures: the plain threshold structure
// within one side (Pi_King, t_L < k/3) and the product structure
// Z* = { S : |S intersect L| <= tL and |S intersect R| <= tR } used by the
// general-adversary broadcast of Lemma 4 (via Fitzi-Maurer). Z* satisfies
// Q3 — no three sets cover everyone — iff tL < k/3 or tR < k/3.
//
// This is a hot-path kernel, so there are no virtual calls: both structures
// are one concrete `Quorums` value and each predicate is a popcount (or,
// for the product structure, two popcounts over precomputed side masks) of
// a core::PartySet of holders. The threshold structure deliberately counts
// *all* holders rather than masking: a threshold instance runs over one
// side's participants, whose global ids may live in [k, 2k).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "common/party_set.hpp"
#include "common/types.hpp"

namespace bsm::broadcast {

/// Concrete (devirtualized) adversary-structure predicates over flat party
/// bitsets. Construct via ThresholdQuorums or ProductQuorums below.
class Quorums {
 public:
  /// Could all participants *outside* `holders` be corrupt (complement in Z)?
  [[nodiscard]] bool complement_corruptible(const core::PartySet& holders) const noexcept {
    if (!product_) return holders.count() + tr_ >= size_;
    const auto [cl, cr] = split(holders);
    return size_ - cl <= tl_ && size_ - cr <= tr_;
  }

  /// Must `holders` contain at least one honest participant (holders not in Z)?
  [[nodiscard]] bool has_honest(const core::PartySet& holders) const noexcept {
    if (!product_) return holders.count() > tr_;
    const auto [cl, cr] = split(holders);
    return cl > tl_ || cr > tr_;
  }

  /// Number of king phases needed so that at least one king is honest.
  [[nodiscard]] std::uint32_t num_phases() const noexcept { return tl_ + tr_ + 1; }

 protected:
  /// Threshold structure: up to `t` corruptions among `size` holders, ids
  /// arbitrary. Stored as tl = 0, tr = t so num_phases() is t + 1.
  Quorums(std::uint32_t size, std::uint32_t t) : size_(size), tl_(0), tr_(t), product_(false) {}

  /// Product structure over ids [0, 2k): side masks precomputed once.
  Quorums(std::uint32_t k, std::uint32_t tl, std::uint32_t tr)
      : left_(core::PartySet::range(0, k)),
        right_(core::PartySet::range(k, 2 * k)),
        size_(k),
        tl_(tl),
        tr_(tr),
        product_(true) {}

  // Accessors for the q3() checks of the concrete structures, so derived
  // classes don't duplicate (or shadow) the stored parameters.
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t tl() const noexcept { return tl_; }
  [[nodiscard]] std::uint32_t tr() const noexcept { return tr_; }

 private:
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> split(
      const core::PartySet& holders) const noexcept {
    return {holders.count_and(left_), holders.count_and(right_)};
  }

  core::PartySet left_;   ///< product only: mask of side-L ids [0, k)
  core::PartySet right_;  ///< product only: mask of side-R ids [k, 2k)
  std::uint32_t size_;    ///< holders per side (product) or in total (threshold)
  std::uint32_t tl_;
  std::uint32_t tr_;
  bool product_;
};

/// Up to t corruptions among `size` participants.
class ThresholdQuorums final : public Quorums {
 public:
  ThresholdQuorums(std::uint32_t size, std::uint32_t t) : Quorums(size, t) {}

  /// Phase-king needs size > 3t for agreement.
  [[nodiscard]] bool q3() const noexcept { return size() > 3 * tr(); }
};

/// The paper's product structure Z* over all n = 2k parties: up to tL
/// corruptions among ids [0,k) and up to tR among [k,2k).
class ProductQuorums final : public Quorums {
 public:
  ProductQuorums(std::uint32_t k, std::uint32_t tl, std::uint32_t tr) : Quorums(k, tl, tr) {}

  /// Q3 for Z* (paper Lemma 4 / Appendix A.3).
  [[nodiscard]] bool q3() const noexcept { return 3 * tl() < size() || 3 * tr() < size(); }
};

}  // namespace bsm::broadcast

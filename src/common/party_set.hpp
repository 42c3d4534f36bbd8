// Flat bitset over party ids — the allocation-free replacement for
// std::set<PartyId> in every broadcast inner loop.
//
// A PartySet is an array of 64-bit words; membership is one shift+mask,
// cardinality is a popcount sweep, and the side-restricted counts the
// product adversary structure needs ("how many of these holders are on
// side L?") are popcounts over an AND with a precomputed side mask. The
// containers it replaces were rebuilt every protocol round; a PartySet is
// cleared in O(words) and reused, so the tally/quorum hot path performs
// zero allocations in steady state.
//
// The first kInlineWords words live inside the object, so a set of ids
// below 128 — every party of a k <= 64 market — never touches the heap.
// A larger id spills the words to one heap block, which grows
// geometrically and is kept by clear(). `words_` points at whichever
// storage is live and is re-pointed by copy and move, so the hot loops
// read one pointer and one length whatever the representation.
//
// Iteration order is ascending id (countr_zero sweep), which matches the
// iteration order of the std::set<PartyId> it replaces — any code that was
// order-sensitive stays byte-identical.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <utility>

#include "common/types.hpp"

namespace bsm::core {

class PartySet {
 public:
  /// Words held inside the object: ids [0, 64 * kInlineWords) never allocate.
  static constexpr std::uint32_t kInlineWords = 2;

  PartySet() noexcept = default;

  /// Pre-size for ids [0, n) so inserts in range never reallocate.
  explicit PartySet(std::uint32_t n) { reserve_words((n + 63) / 64); }

  PartySet(std::initializer_list<PartyId> ids) {
    for (PartyId p : ids) insert(p);
  }

  PartySet(const PartySet& o) {
    reserve_words(o.size_);
    std::copy_n(o.words_, o.size_, words_);
  }

  /// A spilled source hands over its heap block; an inline one is copied.
  /// Either way the source is left empty, inline and reusable.
  PartySet(PartySet&& o) noexcept { take(o); }

  PartySet& operator=(const PartySet& o) {
    if (this != &o) {
      if (o.size_ > capacity_) {
        PartySet copy(o);
        release();
        take(copy);
      } else {
        std::copy_n(o.words_, o.size_, words_);
        size_ = o.size_;
      }
    }
    return *this;
  }

  PartySet& operator=(PartySet&& o) noexcept {
    if (this != &o) {
      release();
      take(o);
    }
    return *this;
  }

  ~PartySet() { release(); }

  /// The full set {0, ..., n-1}.
  [[nodiscard]] static PartySet universe(std::uint32_t n) { return range(0, n); }

  /// The contiguous set {lo, ..., hi-1} (a side mask, e.g. [k, 2k)).
  [[nodiscard]] static PartySet range(std::uint32_t lo, std::uint32_t hi) {
    PartySet s(hi);
    for (std::uint32_t p = lo; p < hi; ++p) s.insert(p);
    return s;
  }

  void insert(PartyId p) {
    const std::size_t w = p >> 6;
    if (w >= size_) grow(w + 1);
    words_[w] |= std::uint64_t{1} << (p & 63);
  }

  void erase(PartyId p) noexcept {
    const std::size_t w = p >> 6;
    if (w < size_) words_[w] &= ~(std::uint64_t{1} << (p & 63));
  }

  [[nodiscard]] bool contains(PartyId p) const noexcept {
    const std::size_t w = p >> 6;
    return w < size_ && (words_[w] >> (p & 63)) & 1;
  }

  /// Drop every member but keep the word capacity (hot-path reuse).
  void clear() noexcept { std::fill(words_, words_ + size_, 0); }

  /// Popcount sweep, unrolled over 4-word blocks (independent accumulators
  /// keep the popcnt units busy on big-n sets spanning thousands of words).
  [[nodiscard]] std::uint32_t count() const noexcept {
    const std::uint64_t* w = words_;
    const std::size_t n = size_;
    std::uint32_t c0 = 0;
    std::uint32_t c1 = 0;
    std::uint32_t c2 = 0;
    std::uint32_t c3 = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      c0 += static_cast<std::uint32_t>(std::popcount(w[i]));
      c1 += static_cast<std::uint32_t>(std::popcount(w[i + 1]));
      c2 += static_cast<std::uint32_t>(std::popcount(w[i + 2]));
      c3 += static_cast<std::uint32_t>(std::popcount(w[i + 3]));
    }
    std::uint32_t c = c0 + c1 + c2 + c3;
    for (; i < n; ++i) c += static_cast<std::uint32_t>(std::popcount(w[i]));
    return c;
  }

  /// |this AND mask| without materializing the intersection. Word counts
  /// may differ (sets grow on demand): the sweep iterates the *shorter*
  /// span explicitly — ids beyond either operand's words cannot intersect.
  [[nodiscard]] std::uint32_t count_and(const PartySet& mask) const noexcept {
    const std::uint64_t* a = words_;
    const std::uint64_t* b = mask.words_;
    const std::size_t n = size_ < mask.size_ ? size_ : mask.size_;
    std::uint32_t c0 = 0;
    std::uint32_t c1 = 0;
    std::uint32_t c2 = 0;
    std::uint32_t c3 = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      c0 += static_cast<std::uint32_t>(std::popcount(a[i] & b[i]));
      c1 += static_cast<std::uint32_t>(std::popcount(a[i + 1] & b[i + 1]));
      c2 += static_cast<std::uint32_t>(std::popcount(a[i + 2] & b[i + 2]));
      c3 += static_cast<std::uint32_t>(std::popcount(a[i + 3] & b[i + 3]));
    }
    std::uint32_t c = c0 + c1 + c2 + c3;
    for (; i < n; ++i) c += static_cast<std::uint32_t>(std::popcount(a[i] & b[i]));
    return c;
  }

  /// One-pass |this AND a| and |this AND b|: this set's words are read
  /// once and counted against both masks (the product-quorum side split —
  /// two count_and calls would stream the holder words twice). Each
  /// pairing is clipped to its shorter span, like count_and.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> count_and2(const PartySet& a,
                                                                   const PartySet& b) const
      noexcept {
    const std::uint64_t* w = words_;
    const std::uint64_t* wa = a.words_;
    const std::uint64_t* wb = b.words_;
    const std::size_t na = size_ < a.size_ ? size_ : a.size_;
    const std::size_t nb = size_ < b.size_ ? size_ : b.size_;
    const std::size_t both = na < nb ? na : nb;
    std::uint32_t ca = 0;
    std::uint32_t cb = 0;
    std::size_t i = 0;
    for (; i + 4 <= both; i += 4) {
      ca += static_cast<std::uint32_t>(std::popcount(w[i] & wa[i])) +
            static_cast<std::uint32_t>(std::popcount(w[i + 1] & wa[i + 1])) +
            static_cast<std::uint32_t>(std::popcount(w[i + 2] & wa[i + 2])) +
            static_cast<std::uint32_t>(std::popcount(w[i + 3] & wa[i + 3]));
      cb += static_cast<std::uint32_t>(std::popcount(w[i] & wb[i])) +
            static_cast<std::uint32_t>(std::popcount(w[i + 1] & wb[i + 1])) +
            static_cast<std::uint32_t>(std::popcount(w[i + 2] & wb[i + 2])) +
            static_cast<std::uint32_t>(std::popcount(w[i + 3] & wb[i + 3]));
    }
    for (; i < both; ++i) {
      ca += static_cast<std::uint32_t>(std::popcount(w[i] & wa[i]));
      cb += static_cast<std::uint32_t>(std::popcount(w[i] & wb[i]));
    }
    for (; i < na; ++i) ca += static_cast<std::uint32_t>(std::popcount(w[i] & wa[i]));
    for (; i < nb; ++i) cb += static_cast<std::uint32_t>(std::popcount(w[i] & wb[i]));
    return {ca, cb};
  }

  [[nodiscard]] bool empty() const noexcept {
    return std::all_of(words_, words_ + size_, [](std::uint64_t w) { return w == 0; });
  }

  /// Visit members in ascending id order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < size_; ++i) {
      std::uint64_t w = words_[i];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        f(static_cast<PartyId>(i * 64 + static_cast<std::size_t>(bit)));
        w &= w - 1;
      }
    }
  }

  /// Value equality over members (trailing zero words are insignificant).
  [[nodiscard]] bool operator==(const PartySet& o) const noexcept {
    const std::size_t n = size_ < o.size_ ? size_ : o.size_;
    for (std::size_t i = 0; i < n; ++i) {
      if (words_[i] != o.words_[i]) return false;
    }
    for (std::size_t i = n; i < size_; ++i) {
      if (words_[i] != 0) return false;
    }
    for (std::size_t i = n; i < o.size_; ++i) {
      if (o.words_[i] != 0) return false;
    }
    return true;
  }

 private:
  [[nodiscard]] bool spilled() const noexcept { return words_ != inline_; }

  /// Size an empty inline set for `n` zero words (one heap block past the
  /// inline words).
  void reserve_words(std::uint32_t n) {
    if (n > kInlineWords) {
      words_ = new std::uint64_t[n]();
      capacity_ = n;
    }
    size_ = n;
  }

  /// Extend to `n` words (n > size_), zero-filled; spills or regrows the
  /// heap block geometrically when `n` exceeds the capacity. Words past
  /// size_ are never read, so they are zeroed here, not kept zero.
  void grow(std::size_t n) {
    if (n > capacity_) {
      const std::size_t cap = std::max<std::size_t>(n, 2 * std::size_t{capacity_});
      auto* words = new std::uint64_t[cap]();
      std::copy_n(words_, size_, words);
      release();
      words_ = words;
      capacity_ = static_cast<std::uint32_t>(cap);
    } else {
      std::fill(words_ + size_, words_ + n, 0);
    }
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Free a spilled block and fall back to the (empty) inline words.
  void release() noexcept {
    if (spilled()) delete[] words_;
    words_ = inline_;
    capacity_ = kInlineWords;
    size_ = 0;
  }

  /// Move `o`'s contents into this empty inline set; `o` is left empty.
  void take(PartySet& o) noexcept {
    if (o.spilled()) {
      words_ = o.words_;
      capacity_ = o.capacity_;
      o.words_ = o.inline_;
      o.capacity_ = kInlineWords;
    } else {
      std::copy_n(o.inline_, o.size_, inline_);
    }
    size_ = o.size_;
    o.size_ = 0;
  }

  std::uint64_t* words_ = inline_;         ///< inline_ or the spilled heap block
  std::uint32_t size_ = 0;                 ///< words in use
  std::uint32_t capacity_ = kInlineWords;  ///< words available at words_
  std::uint64_t inline_[kInlineWords] = {};
};

}  // namespace bsm::core

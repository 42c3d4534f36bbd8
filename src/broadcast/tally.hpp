// TallyArena: the flat, reusable replacement for the per-round
// std::map<Bytes, std::set<PartyId>> vote tallies of phase-king and Pi_BA.
//
// Every phase-king sub-round groups the step's messages of one kind by
// value and asks a quorum predicate about each group's sender set. The
// node-based version rebuilt a map of sets per round — one allocation per
// distinct value plus one per sender node. The arena instead buckets by
// 64-bit content_key in a small open-addressed table of indices; a key
// match is confirmed by full-bytes equality (a colliding key costs one
// compare, never a wrong merge), and every backing structure (bucket
// vector, slot table, sender bitsets, value buffers) is retained across
// rounds, so steady-state tallying allocates nothing.
//
// Determinism: `ordered()` yields buckets sorted lexicographically by value
// bytes — exactly the iteration order of the std::map it replaces — so
// "first group satisfying the predicate" decisions are byte-identical to
// the seed implementation by construction, not by argument about predicate
// uniqueness.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "broadcast/wire.hpp"
#include "common/hash.hpp"
#include "common/party_set.hpp"
#include "net/relay.hpp"

namespace bsm::broadcast {

class TallyArena {
 public:
  struct Bucket {
    std::uint64_t key = 0;  ///< content_key(value): a table key, never a digest
    Bytes value;
    core::PartySet senders;
  };

  /// Rebuild the tally for `kind` from one step's inbox. Replicates the
  /// seed semantics exactly: malformed messages are dropped, a sender's
  /// first message of the kind is the one that counts, other kinds do not
  /// consume the sender's slot.
  void build(const std::vector<net::AppMsg>& inbox, MsgKind kind) {
    size_ = 0;
    order_.clear();
    seen_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
    for (const auto& msg : inbox) {
      const auto kv = decode_kv_view(msg.body);
      if (!kv || kv->kind != kind || seen_.contains(msg.from)) continue;
      seen_.insert(msg.from);
      buckets_[find_or_insert(kv->value)].senders.insert(msg.from);
    }
    order_.resize(size_);
    for (std::uint32_t i = 0; i < size_; ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [this](std::uint32_t a, std::uint32_t b) {
      return std::lexicographical_compare(buckets_[a].value.begin(), buckets_[a].value.end(),
                                          buckets_[b].value.begin(), buckets_[b].value.end());
    });
  }

  /// Bucket indices in ascending lexicographic value order (the std::map
  /// iteration order of the seed implementation).
  [[nodiscard]] std::span<const std::uint32_t> ordered() const noexcept { return order_; }
  [[nodiscard]] const Bucket& bucket(std::uint32_t idx) const noexcept { return buckets_[idx]; }
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }

 private:
  /// Open-addressed lookup by (key, full bytes); claims a fresh bucket
  /// slot (reusing retired Bucket storage) on miss.
  [[nodiscard]] std::uint32_t find_or_insert(ByteView value) {
    if (slots_.size() < 2 * (size_ + 1)) grow();
    const std::uint64_t key = content_key(value);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(key) & mask;
    while (slots_[i] != 0) {
      Bucket& b = buckets_[slots_[i] - 1];
      if (b.key == key && b.value.size() == value.size() &&
          std::equal(value.begin(), value.end(), b.value.begin())) {
        return slots_[i] - 1;
      }
      i = (i + 1) & mask;
    }
    if (size_ == buckets_.size()) buckets_.emplace_back();
    Bucket& b = buckets_[size_];
    b.key = key;
    b.value.assign(value.begin(), value.end());
    b.senders.clear();
    slots_[i] = ++size_;
    return size_ - 1;
  }

  void grow() {
    std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    slots_.assign(cap, 0);
    const std::size_t mask = cap - 1;
    for (std::uint32_t idx = 0; idx < size_; ++idx) {
      std::size_t i = static_cast<std::size_t>(buckets_[idx].key) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = idx + 1;
    }
  }

  std::vector<Bucket> buckets_;     ///< live in [0, size_), retired beyond
  std::uint32_t size_ = 0;
  std::vector<std::uint32_t> slots_;  ///< open addressing; bucket idx + 1, 0 = empty
  std::vector<std::uint32_t> order_;
  core::PartySet seen_;
};

}  // namespace bsm::broadcast

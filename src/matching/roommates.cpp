#include "matching/roommates.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <set>

#include "common/rng.hpp"

namespace bsm::matching {

namespace {

/// Irving's "preference table": per-agent doubly-reducible lists with O(1)
/// rank lookup. Pairs are always deleted symmetrically.
class Table {
 public:
  explicit Table(const RoommatePreferences& prefs) : n_(static_cast<std::uint32_t>(prefs.size())) {
    lists_.resize(n_);
    rank_.assign(n_, std::vector<std::uint32_t>(n_, UINT32_MAX));
    present_.assign(n_, std::vector<bool>(n_, false));
    for (PartyId x = 0; x < n_; ++x) {
      lists_[x] = prefs[x];
      for (std::uint32_t i = 0; i < prefs[x].size(); ++i) {
        rank_[x][prefs[x][i]] = i;
        present_[x][prefs[x][i]] = true;
      }
    }
  }

  [[nodiscard]] bool prefers(PartyId x, PartyId a, PartyId b) const {
    return rank_[x][a] < rank_[x][b];
  }

  void delete_pair(PartyId x, PartyId y) {
    present_[x][y] = false;
    present_[y][x] = false;
  }

  /// Current (reduced) list of x, materialized in preference order.
  [[nodiscard]] std::vector<PartyId> list(PartyId x) const {
    std::vector<PartyId> out;
    for (PartyId y : lists_[x]) {
      if (present_[x][y]) out.push_back(y);
    }
    return out;
  }

  [[nodiscard]] std::optional<PartyId> first(PartyId x) const {
    for (PartyId y : lists_[x]) {
      if (present_[x][y]) return y;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::optional<PartyId> second(PartyId x) const {
    bool skipped = false;
    for (PartyId y : lists_[x]) {
      if (!present_[x][y]) continue;
      if (skipped) return y;
      skipped = true;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::optional<PartyId> last(PartyId x) const {
    for (auto it = lists_[x].rbegin(); it != lists_[x].rend(); ++it) {
      if (present_[x][*it]) return *it;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::uint32_t size(PartyId x) const {
    std::uint32_t count = 0;
    for (PartyId y : lists_[x]) count += present_[x][y];
    return count;
  }

  /// Delete every entry strictly worse than `keep` on x's list.
  void truncate_after(PartyId x, PartyId keep) {
    for (PartyId y : lists_[x]) {
      if (present_[x][y] && prefers(x, keep, y)) delete_pair(x, y);
    }
  }

  [[nodiscard]] std::uint32_t n() const { return n_; }

 private:
  std::uint32_t n_;
  RoommatePreferences lists_;
  std::vector<std::vector<std::uint32_t>> rank_;
  std::vector<std::vector<bool>> present_;
};

/// Phase 1: proposal sequence. Returns false if someone exhausts their
/// list (no stable matching). On success every agent holds exactly one
/// proposal, and each holder's list is truncated below its proposer.
[[nodiscard]] bool phase_one(Table& table) {
  const std::uint32_t n = table.n();
  std::vector<PartyId> holds(n, kNobody);
  std::deque<PartyId> free;
  for (PartyId x = 0; x < n; ++x) free.push_back(x);

  while (!free.empty()) {
    const PartyId x = free.front();
    free.pop_front();
    const auto target = table.first(x);
    if (!target.has_value()) return false;  // exhausted: no stable matching
    const PartyId y = *target;
    if (holds[y] == kNobody) {
      holds[y] = x;
    } else if (table.prefers(y, x, holds[y])) {
      const PartyId rejected = holds[y];
      holds[y] = x;
      table.delete_pair(y, rejected);
      free.push_back(rejected);
    } else {
      table.delete_pair(y, x);
      free.push_back(x);
    }
  }

  // Reduction: y rejects everyone it likes less than its held proposer.
  for (PartyId y = 0; y < n; ++y) {
    if (holds[y] == kNobody) return false;
    table.truncate_after(y, holds[y]);
  }
  return true;
}

/// Phase 2: repeatedly find and eliminate an all-or-nothing cycle until
/// every list is a singleton (success) or some list empties (no stable
/// matching exists).
[[nodiscard]] bool phase_two(Table& table) {
  const std::uint32_t n = table.n();
  while (true) {
    // Find an agent with at least two remaining entries.
    PartyId start = kNobody;
    for (PartyId x = 0; x < n; ++x) {
      const auto sz = table.size(x);
      if (sz == 0) return false;
      if (sz >= 2) {
        start = x;
        break;
      }
    }
    if (start == kNobody) return true;  // all singletons

    // Build the p/q sequence: q_i = second on p_i's list, p_{i+1} = last on
    // q_i's list; stop at the first repeated p (that closes the cycle).
    std::vector<PartyId> p{start};
    std::vector<PartyId> q;
    std::vector<std::int32_t> seen(n, -1);
    seen[start] = 0;
    std::size_t cycle_start = 0;
    while (true) {
      const auto second = table.second(p.back());
      require(second.has_value(), "stable_roommates: rotation walk invariant broken");
      q.push_back(*second);
      const auto next = table.last(*second);
      require(next.has_value(), "stable_roommates: rotation walk invariant broken");
      const PartyId np = *next;
      if (seen[np] >= 0) {
        cycle_start = static_cast<std::size_t>(seen[np]);
        p.push_back(np);
        break;
      }
      seen[np] = static_cast<std::int32_t>(p.size());
      p.push_back(np);
    }
    // Eliminate the rotation: each q_i in the cycle accepts p_i's implicit
    // proposal and rejects everyone it likes less. This removes the pair
    // {q_i, p_{i+1}} and restores the table invariant
    //     first(x) = y  <=>  last(y) = x,
    // which is what keeps the rotation walk above total.
    const std::size_t end = p.size() - 1;  // p[end] == p[cycle_start]
    for (std::size_t i = cycle_start; i < end; ++i) {
      table.truncate_after(q[i], p[i]);
    }
  }
}

}  // namespace

bool is_valid_roommate_profile(const RoommatePreferences& prefs) {
  const std::uint32_t n = static_cast<std::uint32_t>(prefs.size());
  if (n == 0 || n % 2 != 0) return false;
  for (PartyId x = 0; x < n; ++x) {
    if (prefs[x].size() != n - 1) return false;
    std::vector<bool> seen(n, false);
    for (PartyId y : prefs[x]) {
      if (y >= n || y == x || seen[y]) return false;
      seen[y] = true;
    }
  }
  return true;
}

std::uint32_t roommate_rank(const RoommatePreferences& prefs, PartyId x, PartyId candidate) {
  const auto& list = prefs[x];
  const auto it = std::find(list.begin(), list.end(), candidate);
  require(it != list.end(), "roommate_rank: candidate not ranked");
  return static_cast<std::uint32_t>(it - list.begin());
}

std::optional<RoommateMatching> stable_roommates(const RoommatePreferences& prefs) {
  require(is_valid_roommate_profile(prefs), "stable_roommates: invalid profile");
  Table table(prefs);
  if (!phase_one(table)) return std::nullopt;
  if (!phase_two(table)) return std::nullopt;

  RoommateMatching m(prefs.size(), kNobody);
  for (PartyId x = 0; x < prefs.size(); ++x) {
    const auto partner = table.first(x);
    if (!partner.has_value()) return std::nullopt;
    m[x] = *partner;
  }
  // Defensive symmetry check; Irving guarantees this on success.
  for (PartyId x = 0; x < m.size(); ++x) {
    if (m[m[x]] != x) return std::nullopt;
  }
  return m;
}

std::vector<std::pair<PartyId, PartyId>> roommate_blocking_pairs(
    const RoommatePreferences& prefs, const RoommateMatching& m) {
  const std::uint32_t n = static_cast<std::uint32_t>(prefs.size());
  require(m.size() == n, "roommate_blocking_pairs: matching size mismatch");
  // One flat rank table up front makes the pair scan O(n^2) instead of the
  // O(n^3) the per-query list scans of roommate_rank() would cost. O(n^2)
  // memory matches the profile itself.
  std::vector<std::uint32_t> rank(static_cast<std::size_t>(n) * n, UINT32_MAX);
  for (PartyId x = 0; x < n; ++x) {
    require(m[x] == kNobody || (m[x] < n && m[x] != x), "roommate_blocking_pairs: bad matching");
    for (std::uint32_t i = 0; i < prefs[x].size(); ++i) {
      rank[static_cast<std::size_t>(x) * n + prefs[x][i]] = i;
    }
  }
  const auto rank_of = [&](PartyId x, PartyId y) {
    return rank[static_cast<std::size_t>(x) * n + y];
  };
  std::vector<std::pair<PartyId, PartyId>> out;
  for (PartyId x = 0; x < n; ++x) {
    for (PartyId y = x + 1; y < n; ++y) {
      if (m[x] == y) continue;
      const bool x_wants = m[x] == kNobody || rank_of(x, y) < rank_of(x, m[x]);
      const bool y_wants = m[y] == kNobody || rank_of(y, x) < rank_of(y, m[y]);
      if (x_wants && y_wants) out.emplace_back(x, y);
    }
  }
  return out;
}

bool is_stable_roommates(const RoommatePreferences& prefs, const RoommateMatching& m) {
  const std::uint32_t n = static_cast<std::uint32_t>(prefs.size());
  if (m.size() != n) return false;
  for (PartyId x = 0; x < n; ++x) {
    if (m[x] >= n || m[x] == x || m[m[x]] != x) return false;
  }
  return roommate_blocking_pairs(prefs, m).empty();
}

namespace {

void enumerate_matchings(std::vector<PartyId>& m, std::vector<bool>& used,
                         const RoommatePreferences& prefs,
                         std::vector<RoommateMatching>& out) {
  const std::uint32_t n = static_cast<std::uint32_t>(prefs.size());
  PartyId x = kNobody;
  for (PartyId i = 0; i < n; ++i) {
    if (!used[i]) {
      x = i;
      break;
    }
  }
  if (x == kNobody) {
    if (is_stable_roommates(prefs, m)) out.push_back(m);
    return;
  }
  used[x] = true;
  for (PartyId y = x + 1; y < n; ++y) {
    if (used[y]) continue;
    used[y] = true;
    m[x] = y;
    m[y] = x;
    enumerate_matchings(m, used, prefs, out);
    used[y] = false;
  }
  used[x] = false;
}

}  // namespace

std::vector<RoommateMatching> all_stable_roommate_matchings(const RoommatePreferences& prefs) {
  require(is_valid_roommate_profile(prefs), "all_stable_roommate_matchings: invalid profile");
  std::vector<RoommateMatching> out;
  std::vector<PartyId> m(prefs.size(), kNobody);
  std::vector<bool> used(prefs.size(), false);
  enumerate_matchings(m, used, prefs, out);
  return out;
}

RoommatePreferences random_roommate_profile(std::uint32_t n, std::uint64_t seed) {
  require(n >= 2 && n % 2 == 0, "random_roommate_profile: n must be even and positive");
  Rng rng(seed);
  RoommatePreferences prefs(n);
  for (PartyId x = 0; x < n; ++x) {
    std::vector<PartyId> others;
    others.reserve(n - 1);
    for (PartyId y = 0; y < n; ++y) {
      if (y != x) others.push_back(y);
    }
    rng.shuffle(others);
    prefs[x] = std::move(others);
  }
  return prefs;
}

}  // namespace bsm::matching

// Big-n scale cases: the lazy-view fast path (matching/view.hpp) driven to
// n = 10^6 parties, the materialized O(1) rank index, the PartySet block
// popcount kernels, and the sparse-stats engine at sizes where the dense
// n x n channel matrices would not fit. Pure-matching cases never build an
// n x k table — live memory is O(n) by construction (asserted by
// tests/scale_guard_test.cpp); the bench rows put throughput numbers on
// that shape.
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cases/cases.hpp"
#include "cases/digest.hpp"
#include "common/hash.hpp"
#include "common/party_set.hpp"
#include "common/rng.hpp"
#include "core/bench.hpp"
#include "matching/gale_shapley.hpp"
#include "matching/generators.hpp"
#include "matching/stability.hpp"
#include "matching/view.hpp"
#include "net/engine.hpp"

namespace bsm::benchcases {
namespace {

using namespace bsm;
using core::BenchCase;
using core::BenchContext;
using core::BenchRun;

/// A_G-S over a lazy seeded profile. Work units = proposals; stability is
/// checked exhaustively up to `exhaustive_limit` parties per side and by a
/// Monte-Carlo probe (sampled_blocking_pairs_over) beyond that — at
/// n = 10^6 the k^2 exhaustive scan is the thing this path exists to avoid.
[[nodiscard]] BenchRun run_lazy_gale_shapley(std::uint32_t k, std::uint64_t seed,
                                             std::uint32_t exhaustive_limit) {
  BenchRun run;
  const matching::LazyProfile view(k, seed);
  const auto result = matching::gale_shapley_over(view);
  run.cells = result.proposals;
  run.digest = digest_ids(splitmix64(result.proposals), result.matching);
  run.ok = result.matching.size() == 2 * k;
  if (k <= exhaustive_limit) {
    run.ok &= matching::is_stable_over(view, result.matching);
  } else {
    run.ok &= matching::is_perfect_matching(result.matching, k) &&
              matching::sampled_blocking_pairs_over(view, result.matching, 20'000,
                                                    seed ^ 0xb10cULL) == 0;
  }
  return run;
}

/// Rank-query throughput over a lazy profile: `queries` (id, candidate)
/// probes plus position round-trips, no storage anywhere.
[[nodiscard]] BenchRun run_lazy_rank_queries(std::uint32_t k, std::uint64_t queries,
                                             std::uint64_t seed) {
  BenchRun run;
  const matching::LazyProfile view(k, seed);
  Rng rng(seed ^ 0x5eedULL);
  std::uint64_t h = splitmix64(k);
  bool ok = true;
  for (std::uint64_t q = 0; q < queries; ++q) {
    const PartyId id = static_cast<PartyId>(rng.below(2 * k));
    const std::uint32_t pos = static_cast<std::uint32_t>(rng.below(k));
    const PartyId candidate = view.at(id, pos);
    ok &= view.rank(id, candidate) == pos;  // inverse round-trips forward
    h = hash_combine(h, splitmix64((std::uint64_t{id} << 32) | candidate));
  }
  run.cells = queries;
  run.digest = h;
  run.ok = ok;
  return run;
}

/// The materialized side of the same coin: a random k-profile's lazily
/// built inverse-rank index answering a full cross-product of rank queries
/// (2k * k probes, each O(1) — this sweep was O(k) per probe before the
/// index existed).
[[nodiscard]] BenchRun run_materialized_rank_index(std::uint32_t k, std::uint64_t seed) {
  BenchRun run;
  const auto profile = matching::random_profile(k, seed);
  std::uint64_t h = splitmix64(seed);
  bool ok = true;
  for (PartyId id = 0; id < 2 * k; ++id) {
    const auto& list = profile.list(id);
    for (std::uint32_t pos = 0; pos < k; ++pos) {
      const std::uint32_t r = profile.rank(id, list[pos]);
      ok &= r == pos;
      h = hash_combine(h, splitmix64((std::uint64_t{id} << 32) | r));
    }
  }
  run.cells = static_cast<std::size_t>(2) * k * k;
  run.digest = h;
  run.ok = ok;
  return run;
}

/// PartySet block-popcount kernels at 10^6-bit sets: count / count_and /
/// count_and2 sweeps, cross-checked against each other.
[[nodiscard]] BenchRun run_partyset_blocks(std::uint32_t n, std::uint32_t sweeps) {
  BenchRun run;
  core::PartySet holders(n);
  for (std::uint32_t p = 0; p < n; p += 3) holders.insert(p);
  const core::PartySet left = core::PartySet::range(0, n / 2);
  const core::PartySet right = core::PartySet::range(n / 2, n);
  std::uint64_t h = splitmix64(n);
  bool ok = true;
  for (std::uint32_t s = 0; s < sweeps; ++s) {
    holders.insert(s % n);  // perturb so sweeps don't fold to one value
    const std::uint32_t total = holders.count();
    const std::uint32_t cl = holders.count_and(left);
    const std::uint32_t cr = holders.count_and(right);
    const auto [cl2, cr2] = holders.count_and2(left, right);
    ok &= cl == cl2 && cr == cr2 && cl + cr == total;
    h = hash_combine(h, splitmix64((std::uint64_t{total} << 32) | cl));
  }
  run.cells = sweeps;
  run.digest = h;
  run.ok = ok;
  return run;
}

/// Each party floods its ring successor every round — n active channels
/// out of n^2 possible, the sparse-stats shape.
class RingFlooder final : public net::Process {
 public:
  void on_round(net::Context& ctx, net::Inbox inbox) override {
    std::uint64_t h = 0;
    for (const auto& env : inbox) h = hash_combine(h, env.from);
    const PartyId self = ctx.self();
    Bytes payload(8);
    for (int i = 0; i < 8; ++i) {
      payload[i] = static_cast<std::uint8_t>(std::uint64_t{self} >> (8 * i));
    }
    ctx.send((self + 1) % ctx.topology().n(), payload);
  }
};

/// Engine-backed big-n run under StatsMode::Sparse: at n = 16384 the dense
/// channel matrices alone would be 2 * n^2 * 16 bytes = 8.6 GB; the sparse
/// tables hold exactly the n ring channels.
[[nodiscard]] BenchRun run_sparse_ring(std::uint32_t k, Round rounds) {
  BenchRun run;
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, k), /*pki_seed=*/1,
                     net::StatsMode::Sparse);
  const std::uint32_t n = engine.topology().n();
  for (PartyId id = 0; id < n; ++id) engine.set_process(id, std::make_unique<RingFlooder>());
  engine.run(rounds);

  const auto& stats = engine.stats();
  run.cells = n;
  run.rounds = rounds;
  run.messages = stats.messages;
  run.bytes = stats.bytes;

  // Every party sent to exactly one successor each round; the last round's
  // sends are still in flight.
  bool ok = stats.messages == std::uint64_t{n} * rounds;
  ok &= stats.delivered_messages == std::uint64_t{n} * (rounds - 1);
  ok &= stats.sparse_channels.size() == n;  // one active channel per party
  ok &= stats.channel(0, 1).messages == rounds;
  ok &= stats.channel(1, 0).messages == 0;  // silent channel reads as zero
  // The point of the mode: channel memory is O(active), not O(n^2).
  ok &= stats.channel_bytes_resident() <
        static_cast<std::size_t>(n) * n * sizeof(net::TrafficStats::Counter) / 64;
  run.ok = ok;

  std::uint64_t h = splitmix64(n);
  for (PartyId id = 0; id < n; id += 997) h = hash_combine(h, engine.view_hash(id));
  run.digest = hash_combine(h, splitmix64(stats.delivered_bytes));
  return run;
}

}  // namespace

void register_scale() {
  core::register_bench({"scale/lazy_gs_n1e5",
                        [](const BenchContext&) {
                          return run_lazy_gale_shapley(50'000, 42, /*exhaustive_limit=*/4096);
                        }});
  core::register_bench({"scale/lazy_gs_n1e6",  // the headline big-n row
                        [](const BenchContext&) {
                          return run_lazy_gale_shapley(500'000, 42, /*exhaustive_limit=*/4096);
                        }});
  core::register_bench({"scale/lazy_rank_queries_n1e6",
                        [](const BenchContext&) {
                          return run_lazy_rank_queries(500'000, 1'000'000, 42);
                        }});
  core::register_bench({"scale/materialized_rank_index_k1024",
                        [](const BenchContext&) { return run_materialized_rank_index(1024, 42); }});
  core::register_bench({"scale/partyset_blocks_n1e6",
                        [](const BenchContext&) { return run_partyset_blocks(1'000'000, 64); }});
  core::register_bench({"scale/sparse_ring_n16384",
                        [](const BenchContext&) { return run_sparse_ring(8192, 8); }});
  core::register_bench({"scale/smoke",  // lazy GS small enough for CI, stability exhaustive
                        [](const BenchContext&) {
                          return run_lazy_gale_shapley(512, 42, /*exhaustive_limit=*/4096);
                        }});
}

}  // namespace bsm::benchcases

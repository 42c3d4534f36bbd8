// Big-n scale cases: the materialized O(1) rank index, the PartySet block
// popcount kernels at 10^6-bit sets, and an engine run at n = 16384, where
// per-channel n x n counters would not fit. The engine keeps totals-only
// traffic stats, so its state is O(n) (asserted by
// tests/scale_guard_test.cpp); the bench rows put throughput numbers on
// that shape.
#include <cstdint>
#include <memory>

#include "cases/cases.hpp"
#include "common/hash.hpp"
#include "common/party_set.hpp"
#include "core/bench.hpp"
#include "matching/generators.hpp"
#include "net/engine.hpp"

namespace bsm::benchcases {
namespace {

using namespace bsm;
using core::BenchContext;
using core::BenchRun;

/// A random k-profile's inverse-rank index (filled by set()) answering a
/// full cross-product of rank queries (2k * k probes, each O(1) — this sweep
/// was O(k) per probe before the index existed).
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
/// out of n^2 possible.
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

/// Engine-backed big-n run: at n = 16384, per-channel counters over an
/// n x n matrix would be 2 * n^2 * 16 bytes = 8.6 GB, while the engine's
/// state is O(n).
[[nodiscard]] BenchRun run_sparse_ring(std::uint32_t k, Round rounds) {
  BenchRun run;
  net::Engine engine(net::Topology(net::TopologyKind::FullyConnected, k), /*pki_seed=*/1);
  const std::uint32_t n = engine.topology().n();
  for (PartyId id = 0; id < n; ++id) engine.set_process(id, std::make_unique<RingFlooder>());
  engine.run_guarded(rounds);

  const auto& stats = engine.stats();
  run.cells = n;
  run.rounds = rounds;
  run.messages = stats.messages;
  run.bytes = stats.bytes;

  // Every party sent to exactly one successor each round; the last round's
  // sends are still in flight.
  bool ok = stats.messages == std::uint64_t{n} * rounds;
  ok &= stats.delivered_messages == std::uint64_t{n} * (rounds - 1);
  run.ok = ok;

  std::uint64_t h = splitmix64(n);
  for (PartyId id = 0; id < n; id += 997) h = hash_combine(h, engine.view_hash(id));
  run.digest = hash_combine(h, splitmix64(stats.delivered_bytes));
  return run;
}

}  // namespace

void register_scale() {
  core::register_bench({"scale/materialized_rank_index_k1024",
                        [](const BenchContext&) { return run_materialized_rank_index(1024, 42); }});
  core::register_bench({"scale/partyset_blocks_n1e6",
                        [](const BenchContext&) { return run_partyset_blocks(1'000'000, 64); }});
  core::register_bench({"scale/sparse_ring_n16384",
                        [](const BenchContext&) { return run_sparse_ring(8192, 8); }});
}

}  // namespace bsm::benchcases

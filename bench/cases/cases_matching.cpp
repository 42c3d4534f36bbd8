// Matching-substrate case groups: gale_shapley (E6, the A_G-S algorithm of
// Theorem 1) and roommates (E11, Irving's algorithm for the stable
// roommate problem of Section 6).
#include <cstdint>

#include "cases/cases.hpp"
#include "cases/digest.hpp"
#include "common/hash.hpp"
#include "core/bench.hpp"
#include "matching/gale_shapley.hpp"
#include "matching/generators.hpp"
#include "matching/roommates.hpp"

namespace bsm::benchcases {
namespace {

using namespace bsm;
using core::BenchCase;
using core::BenchContext;
using core::BenchRun;

/// One A_G-S execution; work units = proposals (the paper's cost metric),
/// digest = the matching itself (all honest parties must compute the same
/// one — determinism is load-bearing for the bSM reductions).
[[nodiscard]] BenchRun run_gale_shapley(const matching::PreferenceProfile& profile) {
  BenchRun run;
  const auto result = matching::gale_shapley(profile);
  run.cells = result.proposals;
  run.digest = digest_ids(splitmix64(result.proposals), result.matching);
  run.ok = result.matching.size() == 2 * profile.k();
  return run;
}

[[nodiscard]] BenchRun run_irving(std::uint32_t n, std::uint64_t seed) {
  BenchRun run;
  const auto prefs = matching::random_roommate_profile(n, seed);
  const auto m = matching::stable_roommates(prefs);
  run.cells = n;
  run.digest = m.has_value() ? digest_ids(1, *m) : splitmix64(0xdead);
  run.ok = !m.has_value() || matching::is_stable_roommates(prefs, *m);
  return run;
}

/// Empirical solvability-rate sweep: `trials` random instances at size n.
[[nodiscard]] BenchRun run_solvability_rate(std::uint32_t n, std::uint64_t trials) {
  BenchRun run;
  run.cells = trials;
  std::uint64_t solvable = 0;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    const bool s = matching::stable_roommates(matching::random_roommate_profile(n, seed))
                       .has_value();
    solvable += s;
    run.digest = hash_combine(run.digest, splitmix64(s));
  }
  run.digest = hash_combine(run.digest, splitmix64(solvable));
  return run;
}

}  // namespace

void register_gale_shapley() {
  core::register_bench({"gale_shapley/random_k256",
                        [](const BenchContext&) {
                          return run_gale_shapley(matching::random_profile(256, 42));
                        }});
  core::register_bench({"gale_shapley/random_k1024",
                        [](const BenchContext&) {
                          return run_gale_shapley(matching::random_profile(1024, 42));
                        }});
  core::register_bench({"gale_shapley/contested_k256",  // Theta(k^2), the worst case
                        [](const BenchContext&) {
                          return run_gale_shapley(matching::contested_profile(256));
                        }});
  core::register_bench({"gale_shapley/aligned_k256",  // k proposals, the best case
                        [](const BenchContext&) {
                          return run_gale_shapley(matching::aligned_profile(256));
                        }});
  core::register_bench({"gale_shapley/similar_k256",  // Khanchandani-Wattenhofer motivation
                        [](const BenchContext&) {
                          return run_gale_shapley(matching::similar_profile(256, /*swaps=*/64, 7));
                        }});
  core::register_bench({"gale_shapley/smoke",
                        [](const BenchContext&) {
                          return run_gale_shapley(matching::random_profile(32, 42));
                        }});
}

void register_roommates() {
  core::register_bench({"roommates/irving_random_n128",
                        [](const BenchContext&) { return run_irving(128, 42); }});
  core::register_bench({"roommates/irving_random_n512",
                        [](const BenchContext&) { return run_irving(512, 42); }});
  core::register_bench({"roommates/irving_solvability_rate_n32",
                        [](const BenchContext&) { return run_solvability_rate(32, 200); }});
  core::register_bench({"roommates/smoke",
                        [](const BenchContext&) { return run_irving(16, 42); }});
}

}  // namespace bsm::benchcases

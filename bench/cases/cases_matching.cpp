// Matching-substrate case group: gale_shapley (E6, the A_G-S algorithm of
// Theorem 1).
#include "cases/cases.hpp"
#include "cases/digest.hpp"
#include "common/hash.hpp"
#include "core/bench.hpp"
#include "matching/gale_shapley.hpp"
#include "matching/generators.hpp"

namespace bsm::benchcases {
namespace {

using namespace bsm;
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

}  // namespace bsm::benchcases

// The traced runs' decomposition of core::run_bsm into the public calls it
// is made of, each call timed and sampled for allocations.
#pragma once

#include <cstdint>
#include <optional>

#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "measure.hpp"

namespace perfbench {

/// run_bsm(to_run_spec(scenario, arena, resolved)) as the chain
/// to_run_spec -> assemble_run -> Engine::run_guarded(1, cap) per round ->
/// collect_outcome, stepped exactly as src/core/runner.cpp's run_bsm
/// steps it. Returns the RunOutcome run_bsm would; also adds the outcome's
/// rounds, messages and bytes to `clock`.
[[nodiscard]] bsm::core::RunOutcome traced_run(
    const bsm::core::ScenarioSpec& scenario, bsm::core::SweepArena* arena,
    const std::optional<bsm::core::ProtocolSpec>& resolved, CallClock& clock);

/// Fold one outcome into a running output digest: view hashes, decisions,
/// traffic, rounds and the property verdict.
[[nodiscard]] std::uint64_t fold_outcome(std::uint64_t digest, const bsm::core::RunOutcome& out);

}  // namespace perfbench

#include "chain.hpp"

#include <cstdint>
#include <utility>

#include "common/hash.hpp"
#include "net/delivery.hpp"

namespace perfbench {

using namespace bsm;

namespace {

[[nodiscard]] bool all_honest_decided(const core::AssembledRun& run) {
  for (PartyId id = 0; id < run.config.n(); ++id) {
    if (run.engine.is_corrupt(id)) continue;
    if (!dynamic_cast<const core::BsmProcess&>(run.engine.process(id)).decided()) return false;
  }
  return true;
}

}  // namespace

core::RunOutcome traced_run(const core::ScenarioSpec& scenario, core::SweepArena* arena,
                            const std::optional<core::ProtocolSpec>& resolved, CallClock& clock) {
  core::RunSpec spec =
      clock.time(Call::Materialize, [&] { return core::to_run_spec(scenario, arena, resolved); });
  const Round max_rounds = spec.max_rounds;
  std::optional<core::AssembledRun> run;
  clock.time(Call::Assemble, [&] { run.emplace(core::assemble_run(std::move(spec))); });

  const net::DeliveryPolicy* policy = run->engine.delivery_policy();
  const Round budget = policy != nullptr ? policy->stall_budget() : 0;
  const Round cap = max_rounds != 0
                        ? max_rounds
                        : (run->rounds > UINT32_MAX - budget ? UINT32_MAX : run->rounds + budget);
  bool decided_seen = false;
  Round decided_at = 0;
  bool limit_hit = false;
  for (Round done = 0; done < run->rounds;) {
    const auto prog = clock.time(Call::Round, [&] { return run->engine.run_guarded(1, cap); });
    if (prog.limit_hit) {
      limit_hit = true;
      break;
    }
    done += prog.protocol_rounds;
    if (!decided_seen && clock.time(Call::Watch, [&] { return all_honest_decided(*run); })) {
      decided_seen = true;
      decided_at = run->engine.engine_rounds();
    }
  }

  core::RunOutcome out = clock.time(Call::Collect, [&] { return core::collect_outcome(*run); });
  out.rounds_to_termination = decided_seen ? decided_at : 0;
  out.round_limit_hit = limit_hit && !out.terminated;
  clock.time(Call::Teardown, [&] { run.reset(); });
  clock.rounds += out.rounds;
  clock.messages += out.traffic.messages;
  clock.bytes += out.traffic.bytes;
  return out;
}

std::uint64_t fold_outcome(std::uint64_t digest, const core::RunOutcome& out) {
  for (const std::uint64_t v : out.view_hashes) digest = hash_combine(digest, v);
  for (const auto& d : out.decisions) digest = hash_combine(digest, splitmix64(d.value_or(kNobody - 1)));
  digest = hash_combine(digest, splitmix64(out.traffic.messages));
  digest = hash_combine(digest, splitmix64(out.traffic.bytes));
  digest = hash_combine(digest, splitmix64(out.rounds));
  return hash_combine(digest, splitmix64(out.report.all() ? 1 : 0));
}

}  // namespace perfbench

#include "core/runner.hpp"

#include <stdexcept>
#include <string>

#include "common/party_set.hpp"
#include "core/oracle.hpp"

namespace bsm::core {

namespace {

[[nodiscard]] ProtocolSpec spec_for(const RunSpec& spec) {
  if (spec.forced_spec.has_value()) return *spec.forced_spec;
  if (spec.resolved_spec.has_value()) return *spec.resolved_spec;
  auto resolved = resolve_protocol(spec.config);
  require(resolved.has_value(), "run_bsm: configuration is unsolvable (per the paper); "
                                "use forced_spec for attack experiments");
  return *resolved;
}

}  // namespace

std::unique_ptr<BsmProcess> honest_process_for(const RunSpec& spec, PartyId id,
                                               matching::PreferenceList input) {
  return make_bsm_process(spec.config, spec_for(spec), id, std::move(input));
}

AssembledRun assemble_run(RunSpec spec) {
  const BsmConfig& cfg = spec.config;
  if (cfg.k > kMaxK) {
    throw std::logic_error("run_bsm: k = " + std::to_string(cfg.k) + " is above core::kMaxK = " +
                           std::to_string(kMaxK) + ": a market's 2k parties must fit a PartySet");
  }
  require(spec.inputs.k() == cfg.k, "run_bsm: inputs sized for a different market");
  const ProtocolSpec proto = spec_for(spec);

  net::Engine engine(net::Topology(cfg.topology, cfg.k), spec.pki_seed);
  if (spec.policy != nullptr) engine.set_delivery_policy(std::move(spec.policy));

  // A party corrupted from round 0 never runs honest code, so it gets no
  // honest process; an adaptively corrupted one runs it until `when`.
  PartySet corrupt_from_start;
  for (const auto& adv : spec.adversaries) {
    require(adv.id < cfg.n(), "run_bsm: adversary id out of range");
    require(adv.strategy != nullptr, "run_bsm: adversary strategy missing");
    if (adv.when == 0) corrupt_from_start.insert(adv.id);
  }
  for (PartyId id = 0; id < cfg.n(); ++id) {
    if (corrupt_from_start.contains(id)) continue;
    engine.set_process(id, make_bsm_process(cfg, proto, id, spec.inputs.list(id)));
  }
  for (auto& adv : spec.adversaries) {
    if (adv.when == 0) {
      engine.set_corrupt(adv.id, std::move(adv.strategy));
    } else {
      engine.schedule_corruption(adv.id, adv.when, std::move(adv.strategy));
    }
  }

  return AssembledRun{cfg, std::move(spec.inputs), proto, proto.total_rounds + spec.extra_rounds,
                      std::move(engine)};
}

RunOutcome collect_outcome(const AssembledRun& run) {
  const BsmConfig& cfg = run.config;
  const net::Engine& engine = run.engine;
  RunOutcome out;
  out.spec = run.spec;
  out.rounds = engine.current_round();
  out.corrupt = engine.corrupt_mask();
  out.traffic = engine.stats();
  out.decisions.resize(cfg.n());
  out.view_hashes.resize(cfg.n());
  bool all_decided = true;
  for (PartyId id = 0; id < cfg.n(); ++id) {
    out.view_hashes[id] = engine.view_hash(id);
    if (out.corrupt[id]) continue;
    const auto& process = dynamic_cast<const BsmProcess&>(engine.process(id));
    if (process.decided()) {
      out.decisions[id] = process.decision();
    } else {
      all_decided = false;
    }
  }
  out.terminated = all_decided;
  // Snapshot liveness measure: the engine rounds consumed so far.
  // run_assembled() overwrites this with the exact first-all-decided
  // watermark.
  out.rounds_to_termination = all_decided ? engine.engine_rounds() : 0;
  out.report = check_bsm(cfg.k, out.corrupt, run.inputs, out.decisions);
  return out;
}

namespace {

[[nodiscard]] bool all_honest_decided(const AssembledRun& run) {
  for (PartyId id = 0; id < run.config.n(); ++id) {
    if (run.engine.is_corrupt(id)) continue;
    if (!dynamic_cast<const BsmProcess&>(run.engine.process(id)).decided()) return false;
  }
  return true;
}

}  // namespace

Round engine_round_cap(const AssembledRun& run, Round rounds, Round max_rounds) {
  if (max_rounds != 0) return max_rounds;
  const net::DeliveryPolicy* policy = run.engine.delivery_policy();
  const Round budget = policy != nullptr ? policy->stall_budget() : 0;
  return rounds > UINT32_MAX - budget ? UINT32_MAX : rounds + budget;
}

RunOutcome run_assembled(AssembledRun& run, Round rounds, Round max_rounds) {
  const Round cap = engine_round_cap(run, rounds, max_rounds);

  // Step one protocol round at a time under the engine-round guard,
  // watching for the first boundary where every honest party has
  // decided — the run's rounds_to_termination watermark.
  bool decided_seen = false;
  Round decided_at = 0;
  bool limit_hit = false;
  for (Round done = 0; done < rounds;) {
    const auto prog = run.engine.run_guarded(1, cap);
    if (prog.limit_hit) {
      limit_hit = true;
      break;
    }
    done += prog.protocol_rounds;
    if (!decided_seen && all_honest_decided(run)) {
      decided_seen = true;
      decided_at = run.engine.engine_rounds();
    }
  }

  RunOutcome out = collect_outcome(run);
  out.rounds_to_termination = decided_seen ? decided_at : 0;
  // A guard cutoff after every honest party decided merely truncated the
  // post-deadline slack; only an undecided cutoff is a liveness verdict.
  out.round_limit_hit = limit_hit && !out.terminated;
  return out;
}

RunOutcome run_bsm(RunSpec spec) {
  const Round max_rounds = spec.max_rounds;
  AssembledRun run = assemble_run(std::move(spec));
  return run_assembled(run, run.rounds, max_rounds);
}

}  // namespace bsm::core

#include "core/scenario.hpp"

#include <set>

#include "adversary/shims.hpp"
#include "adversary/strategies.hpp"
#include "common/hash.hpp"
#include "common/party_set.hpp"
#include "matching/generators.hpp"

namespace bsm::core {

OracleKey oracle_key(const ScenarioSpec& scenario) {
  std::uint64_t adv = 0;
  for (const auto& desc : scenario.adversaries) {
    std::uint64_t packed = (static_cast<std::uint64_t>(desc.kind) << 56) |
                           (static_cast<std::uint64_t>(desc.id) << 24) |
                           (static_cast<std::uint64_t>(desc.when) << 8) |
                           static_cast<std::uint64_t>(desc.crash_round & 0xff);
    adv = hash_combine(adv, splitmix64(packed));
    // Structure, not workload: the omission budget shapes the fault, so it
    // belongs in the key (folded only when set, keeping historical digests).
    if (desc.budget != 0) adv = hash_combine(adv, splitmix64(0xb0d6e700ULL ^ desc.budget));
  }
  // The schedule is deliberately excluded: the oracle verdict and resolved
  // protocol depend on the setting axes only, and a (setting x schedule)
  // fan-out should collapse onto one cache entry per setting.
  return OracleKey::from_config(scenario.config, adv);
}

const matching::PreferenceProfile& SweepArena::contested_profile(std::uint32_t k) {
  for (const auto& [size, profile] : contested_) {
    if (size == k) {
      ++profile_hits_;
      return profile;
    }
  }
  ++profile_builds_;
  contested_.emplace_back(k, matching::contested_profile(k));
  return contested_.back().second;
}

void apply_battery(ScenarioSpec& spec, Battery battery, std::uint64_t salt_seed) {
  const auto& cfg = spec.config;
  auto add = [&](PartyId id, std::uint32_t salt) {
    AdversaryDesc desc;
    desc.id = id;
    switch (battery) {
      case Battery::Silent:
        desc.kind = AdversaryDesc::Kind::Silent;
        break;
      case Battery::Noise:
        desc.kind = AdversaryDesc::Kind::Noise;
        desc.seed = salt_seed * 97 + salt;
        break;
      case Battery::Liars:
        desc.kind = AdversaryDesc::Kind::Liar;
        break;
      case Battery::AdaptiveCrash:
        desc.kind = AdversaryDesc::Kind::Silent;
        desc.when = 2 + salt % 3;
        break;
      case Battery::Omission:
        desc.kind = AdversaryDesc::Kind::Omission;
        desc.budget = 2 + salt % 2;
        break;
    }
    spec.adversaries.push_back(desc);
  };
  // The full per-side budgets: the hardest legal corruption count.
  for (std::uint32_t i = 0; i < cfg.tl; ++i) add(i, i);
  for (std::uint32_t i = 0; i < cfg.tr; ++i) add(cfg.k + i, 100 + i);
}

namespace {

/// The contested (worst-case) profile for size k, via the worker's arena
/// when one is supplied, built fresh otherwise. `local` is the caller's
/// fallback storage so the returned reference always outlives the call.
[[nodiscard]] const matching::PreferenceProfile& contested_for(
    std::uint32_t k, SweepArena* arena, std::optional<matching::PreferenceProfile>& local) {
  if (arena != nullptr) return arena->contested_profile(k);
  return local.emplace(matching::contested_profile(k));
}

[[nodiscard]] std::unique_ptr<net::Process> materialize(const AdversaryDesc& desc,
                                                        const RunSpec& spec,
                                                        const std::set<PartyId>& conspirators,
                                                        SweepArena* arena) {
  const std::uint32_t k = spec.config.k;
  std::optional<matching::PreferenceProfile> local;
  switch (desc.kind) {
    case AdversaryDesc::Kind::Silent:
      return std::make_unique<adversary::Silent>();
    case AdversaryDesc::Kind::Noise:
      return std::make_unique<adversary::RandomNoise>(desc.seed, 3);
    case AdversaryDesc::Kind::Liar: {
      const auto& lie = contested_for(k, arena, local);
      return honest_process_for(spec, desc.id, lie.list(desc.id));
    }
    case AdversaryDesc::Kind::Crash:
      return std::make_unique<adversary::CrashAt>(
          desc.crash_round, honest_process_for(spec, desc.id, spec.inputs.list(desc.id)));
    case AdversaryDesc::Kind::SplitBrainLiar: {
      const auto& lie = contested_for(k, arena, local);
      return std::make_unique<adversary::SplitBrain>(
          honest_process_for(spec, desc.id, spec.inputs.list(desc.id)),
          honest_process_for(spec, desc.id, lie.list(desc.id)),
          [](PartyId p) { return static_cast<int>(p % 2); });
    }
    case AdversaryDesc::Kind::SplitBrainRelay:
      // The relay attack splits the disconnected side: one honest L party
      // per world; all SplitBrainRelay parties jointly simulate one
      // consistent duplicated system.
      return std::make_unique<adversary::SplitBrain>(
          honest_process_for(spec, desc.id, spec.inputs.list(desc.id)),
          honest_process_for(
              spec, desc.id,
              matching::default_preference_list(side_of(desc.id, k), k)),
          [](PartyId p) { return p == 0 ? 0 : 1; }, conspirators);
    case AdversaryDesc::Kind::Omission: {
      // Send-omission: honest code behind the budgeted channel filter —
      // the process-level half of the fault-envelope story, composing with
      // network-level schedules (TargetedOmissionPolicy) in one scenario.
      const Side other = opposite(side_of(desc.id, k));
      const PartyId base = other == Side::Left ? 0 : k;
      return std::make_unique<adversary::SendFiltered>(
          honest_process_for(spec, desc.id, spec.inputs.list(desc.id)),
          adversary::budgeted_omission_filter(PartySet::range(base, base + k), desc.budget));
    }
  }
  throw std::logic_error("materialize: unknown adversary kind");
}

/// The schedule's fault envelope for a cell: it targets the scenario's
/// corrupted ids, so a perturbed run stays inside the setting's guarantees.
[[nodiscard]] net::FaultEnvelope envelope_for(const ScenarioSpec& scenario) {
  net::FaultEnvelope env;
  for (const auto& desc : scenario.adversaries) env.targets.insert(desc.id);
  env.max_delay = scenario.sched.max_delay;
  env.omission_budget = scenario.sched.omission_budget;
  return env;
}

}  // namespace

RunSpec to_run_spec(const ScenarioSpec& scenario, SweepArena* arena,
                    const std::optional<ProtocolSpec>& resolved) {
  RunSpec spec;
  spec.config = scenario.config;
  spec.inputs = matching::random_profile(scenario.config.k, scenario.input_seed);
  spec.pki_seed = scenario.pki_seed;
  spec.extra_rounds = scenario.extra_rounds;
  spec.max_rounds = scenario.max_rounds;
  spec.forced_spec = scenario.forced_spec;
  spec.resolved_spec = resolved;

  std::set<PartyId> conspirators;
  for (const auto& desc : scenario.adversaries) {
    if (desc.kind == AdversaryDesc::Kind::SplitBrainRelay) conspirators.insert(desc.id);
  }
  for (const auto& desc : scenario.adversaries) {
    require(desc.id < scenario.config.n(), "to_run_spec: adversary id out of range");
    spec.adversaries.push_back({desc.id, desc.when, materialize(desc, spec, conspirators, arena)});
  }
  spec.policy = sched::make_policy(scenario.sched, envelope_for(scenario));
  return spec;
}

std::vector<sched::PolicyDesc> schedule_axis(const sched::PolicyDesc& base, std::uint64_t count) {
  if (base.is_synchronous() || count <= 1) return {base};
  std::vector<sched::PolicyDesc> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    sched::PolicyDesc desc = base;
    desc.seed = base.seed + i;
    out.push_back(std::move(desc));
  }
  return out;
}

std::vector<ScenarioSpec> SweepGrid::cells() const {
  std::vector<ScenarioSpec> out;
  for (const auto topo : topologies) {
    for (const bool auth : auths) {
      for (const std::uint32_t k : ks) {
        std::vector<std::uint32_t> tl_axis = tls;
        std::vector<std::uint32_t> tr_axis = trs;
        if (tl_axis.empty()) {
          for (std::uint32_t t = 0; t <= k; ++t) tl_axis.push_back(t);
        }
        if (tr_axis.empty()) {
          for (std::uint32_t t = 0; t <= k; ++t) tr_axis.push_back(t);
        }
        for (const std::uint32_t tl : tl_axis) {
          for (const std::uint32_t tr : tr_axis) {
            for (const std::uint64_t seed : seeds) {
              for (const Battery battery : batteries) {
                for (const auto& sched_desc : scheds) {
                  ScenarioSpec cell;
                  cell.config = BsmConfig{topo, auth, k, tl, tr};
                  // Fold every axis into the workload seed so each cell
                  // runs a distinct preference profile (a bug that only
                  // manifests on particular profiles at particular budgets
                  // stays catchable). The schedule axis deliberately does
                  // NOT shift the workload: cells differing only in
                  // schedule run the same inputs under different delivery.
                  cell.input_seed =
                      seed * 101 + static_cast<std::uint64_t>(battery) + tl * 31 + tr * 7 + k;
                  cell.pki_seed = seed + tl + tr;
                  cell.extra_rounds = extra_rounds;
                  cell.max_rounds = max_rounds;
                  cell.sched = sched_desc;
                  apply_battery(cell, battery, seed * 13 + tl * 11 + tr);
                  out.push_back(std::move(cell));
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace bsm::core

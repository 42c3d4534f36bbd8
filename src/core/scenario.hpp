// Declarative scenario layer on top of RunSpec.
//
// RunSpec holds live process objects (unique_ptrs), so it can be neither
// copied, compared, nor shipped to a worker thread. A ScenarioSpec is the
// pure-value description of one experiment cell — setting, workload seed,
// adversary plan — from which each worker materializes its own RunSpec.
// Every harness that used to hand-roll nested loops over (k, tL, tR, seed,
// adversary) now enumerates cells with SweepGrid and executes them with
// run_sweep() (see core/sweep.hpp).
//
// Determinism contract: to_run_spec() is a pure function of the spec's
// value — all randomness (inputs, PKI keys, noise streams) derives from
// the seeds carried inside the spec, never from global state — so the
// same ScenarioSpec always produces the same RunOutcome, on any thread,
// in any cell order. This is what makes a ScenarioSpec a meaningful unit
// of comparison across commits (the bench harness keys its determinism
// digests on it) and what lets run_sweep() promise parallel ≡ serial.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <utility>
#include <vector>

#include "core/factory.hpp"
#include "core/oracle.hpp"
#include "core/runner.hpp"
#include "sched/policy.hpp"

namespace bsm::core {

/// Pure-value description of one corrupted party.
struct AdversaryDesc {
  enum class Kind : std::uint8_t {
    Silent,          ///< never sends (crash before round 0)
    Noise,           ///< sprays random well-addressed garbage
    Liar,            ///< honest code over the contested lie profile
    Crash,           ///< honest code until crash_round, then silence
    SplitBrainLiar,  ///< two honest instances (true input / lie), worlds by parity
    SplitBrainRelay, ///< the relay split-brain device of Lemmas 5/7/13; all
                     ///< SplitBrainRelay parties in a scenario conspire
    Omission,        ///< honest code; first `budget` sends to the opposite
                     ///< side are swallowed (send-omission via shims)
  };

  Kind kind = Kind::Silent;
  PartyId id = kNobody;
  Round when = 0;          ///< corruption round (0 = byzantine from the start)
  std::uint64_t seed = 0;  ///< Noise RNG seed
  Round crash_round = 3;   ///< Crash only
  std::uint32_t budget = 0;  ///< Omission only: sends the fault swallows

  bool operator==(const AdversaryDesc&) const = default;
};

/// The adversary batteries the solvability-grid harnesses throw at every
/// cell: each corrupts the full per-side budget (ids 0..tL-1 and k..k+tR-1)
/// with one strategy family.
enum class Battery : std::uint8_t {
  Silent,         ///< all silent from round 0
  Noise,          ///< all spray garbage
  Liars,          ///< all run honest code over lying inputs
  AdaptiveCrash,  ///< silent, but corrupted only at round 2 + salt % 3
  Omission,       ///< honest code behind a budgeted send-omission shim
};

/// One experiment cell as a value. Copyable, hashable by content, safe to
/// ship across threads.
struct ScenarioSpec {
  BsmConfig config;
  std::uint64_t input_seed = 1;  ///< matching::random_profile seed
  std::uint64_t pki_seed = 1;
  Round extra_rounds = 2;
  std::vector<AdversaryDesc> adversaries;
  std::optional<ProtocolSpec> forced_spec;  ///< attack experiments only

  /// Delivery schedule for the cell (default: the synchronous identity,
  /// which materializes to the engine's zero-overhead fast path). With
  /// Scope::CorruptAdjacent the schedule's fault envelope targets exactly
  /// the `adversaries` ids, so a perturbed run stays inside the setting's
  /// byzantine guarantees.
  sched::PolicyDesc sched;

  /// Engine-round guard (copied into RunSpec::max_rounds): 0 resolves to
  /// the protocol deadline plus the schedule's stall budget; a smaller
  /// explicit cap turns a starved run into a round_limit_hit outcome.
  Round max_rounds = 0;
};

/// Corrupt the full per-side budget of `spec.config` with `battery`;
/// `salt_seed` varies the noise RNG streams between repetitions.
void apply_battery(ScenarioSpec& spec, Battery battery, std::uint64_t salt_seed);

/// The cell's canonical setting identity for the OracleCache: the config
/// axes plus a digest of the adversary structure — each corrupted party's
/// (kind, id, corruption round, crash round), in order. Workload
/// randomness (input/PKI/noise seeds) is excluded on purpose: cells that
/// differ only in seeds are the same *setting* and share one cache entry.
[[nodiscard]] OracleKey oracle_key(const ScenarioSpec& scenario);

/// Per-worker scratch reused across every cell a sweep worker executes.
/// Today it memoizes the contested (worst-case) preference profile per
/// market size — rebuilt from scratch by every Liar/SplitBrain adversary
/// otherwise — and is the hook for future per-worker pools (engine arenas,
/// input buffers). Not thread-safe: one arena per worker, by construction.
class SweepArena {
 public:
  /// `matching::contested_profile(k)`, built once per k per worker.
  [[nodiscard]] const matching::PreferenceProfile& contested_profile(std::uint32_t k);

  /// Profiles served from the arena vs built fresh (observability only).
  [[nodiscard]] std::uint64_t profile_hits() const noexcept { return profile_hits_; }
  [[nodiscard]] std::uint64_t profile_builds() const noexcept { return profile_builds_; }

 private:
  // std::list for reference stability: handed-out profiles stay valid for
  // the arena's lifetime, however many sizes a mixed-k sweep interleaves.
  std::list<std::pair<std::uint32_t, matching::PreferenceProfile>> contested_;
  std::uint64_t profile_hits_ = 0;
  std::uint64_t profile_builds_ = 0;
};

/// Materialize the live RunSpec (inputs + adversary processes) for a cell.
/// `arena`, when given, supplies memoized per-worker scratch (nullptr is
/// always legal and simply builds everything fresh). `resolved`, when
/// given, is the construction already resolved for the cell's config —
/// e.g. served from the OracleCache — and is installed as
/// RunSpec::resolved_spec up front, so neither adversary materialization
/// nor run_bsm() re-derives it.
[[nodiscard]] RunSpec to_run_spec(const ScenarioSpec& scenario, SweepArena* arena = nullptr,
                                  const std::optional<ProtocolSpec>& resolved = std::nullopt);

/// Cartesian grid of scenario cells over the canonical sweep axes. Empty
/// `tls`/`trs` mean "0..k inclusive" (the full corruption-budget range).
struct SweepGrid {
  std::vector<net::TopologyKind> topologies{net::TopologyKind::FullyConnected};
  std::vector<bool> auths{true};
  std::vector<std::uint32_t> ks{4};
  std::vector<std::uint32_t> tls;
  std::vector<std::uint32_t> trs;
  std::vector<std::uint64_t> seeds{1};
  std::vector<Battery> batteries{Battery::Silent};
  Round extra_rounds = 2;

  /// Copied into every cell's ScenarioSpec::max_rounds (0 = the resolved
  /// deadline + stall-budget default).
  Round max_rounds = 0;

  /// Delivery-schedule axis: each cell is repeated once per desc, so a
  /// grid fans out (setting x schedule) — e.g. schedule_axis(...) builds
  /// the (schedule-seed) spread for RandomDelay. The default single
  /// synchronous desc reproduces the historical grid cell for cell.
  std::vector<sched::PolicyDesc> scheds{sched::PolicyDesc{}};

  /// All cells, outermost axis first (topology, auth, k, tL, tR, seed,
  /// battery, schedule); deterministic order. Unsolvable cells are
  /// included — the sweep driver reports them as such without running.
  [[nodiscard]] std::vector<ScenarioSpec> cells() const;
};

/// The (schedule-seed) spread for a SweepGrid: `count` copies of `base`
/// whose seeds are base.seed, base.seed + 1, ... (one schedule stream per
/// cell repetition). For Synchronous the seed is inert and one desc is
/// returned.
[[nodiscard]] std::vector<sched::PolicyDesc> schedule_axis(const sched::PolicyDesc& base,
                                                           std::uint64_t count);

}  // namespace bsm::core

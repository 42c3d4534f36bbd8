// The benchmark suite's case groups, one register function each.
// `bsm_cli bench` calls register_all() and so runs the full suite;
// `--filter '^<group>/'` narrows it to one group. Case names are
// "<group>/<case>"; every group but scale/ also registers a
// "<group>/smoke" case small enough for CI's bench smoke job
// (--filter smoke, which also selects sched/fuzz_smoke).
#pragma once

namespace bsm::benchcases {

void register_gale_shapley();         // E6  — A_G-S substrate cost
void register_solvability_grid();     // E1  — the paper's results grid
void register_fault_crossover();      // E10 — threshold crossover figure
void register_ablation();             // E9  — quorum + suggestion ablations
void register_attack_lemma5();        // E3  — Lemma 5 boundary attack
void register_attack_lemma7();        // E4  — Lemma 7 boundary attack
void register_attack_lemma13();       // E5  — Lemma 13 indistinguishability
void register_lemma3();               // E12 — group-simulation overhead
void register_broadcast_protocols();  // E7  — building-block closed forms
void register_bsm_end_to_end();       // E8  — per-construction cost
void register_channel_simulation();   // E2  — virtual channel cost
void register_sweep_scheduler();      // work-stealing vs static partitioning
void register_oracle_cache();         // memoized solvability oracle
void register_broadcast_kernel();     // flat tally/quorum/verify kernel
void register_sched();                // delivery schedules + explorer
void register_scale();                // big-n: rank index, PartySet blocks, engine
void register_obs();                  // recorder overhead + determinism identity

/// Register every group (the full suite: the experiment families in
/// E-number order, then the engineering groups).
void register_all();

}  // namespace bsm::benchcases

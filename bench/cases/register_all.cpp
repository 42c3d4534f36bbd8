#include "cases/cases.hpp"

namespace bsm::benchcases {

void register_all() {
  register_solvability_grid();
  register_channel_simulation();
  register_attack_lemma5();
  register_attack_lemma7();
  register_attack_lemma13();
  register_gale_shapley();
  register_broadcast_protocols();
  register_bsm_end_to_end();
  register_ablation();
  register_fault_crossover();
  register_lemma3();
  register_sweep_scheduler();
  register_oracle_cache();
  register_broadcast_kernel();
  register_sched();
  register_scale();
  register_obs();
}

}  // namespace bsm::benchcases

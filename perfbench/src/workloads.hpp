// The three workloads of the repository benchmark (see README.md).
#pragma once

#include <cstdint>

#include "measure.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 0;  ///< workload seed: every generated input derives from it
  double seconds = 0;      ///< how long a run measures
  bool trace = false;      ///< per-layer metrics from traced passes instead of end-to-end ones
};

[[nodiscard]] Report run_grid_sweep(const RunOptions& opts);
[[nodiscard]] Report run_protocol_runs(const RunOptions& opts);
[[nodiscard]] Report run_schedule_fuzz(const RunOptions& opts);

}  // namespace perfbench

// The repository benchmark binary: runs one workload and prints its
// metrics.
//
//   bsm_perfbench --workload grid_sweep|protocol_runs|schedule_fuzz
//                 --seed N --seconds S --trace 0|1
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0 (the
// default), the per-layer metrics of separately traced passes with
// --trace 1. --workload, --seed and --seconds are required. Exit status 0
// only when every correctness check held; 2 on a usage error.
#include <charconv>
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: bsm_perfbench --workload grid_sweep|protocol_runs|schedule_fuzz "
               "--seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  std::string workload;
  bool seeded = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    const char* end = value.data() + value.size();
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      const auto [p, ec] = std::from_chars(value.data(), end, opts.seed);
      if (ec != std::errc{} || p != end) return usage();
      seeded = true;
    } else if (flag == "--seconds") {
      try {
        opts.seconds = std::stod(value);
      } catch (const std::exception&) {
        return usage();
      }
      if (!(opts.seconds > 0)) return usage();
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      opts.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (!seeded || !(opts.seconds > 0)) return usage();

  try {
    perfbench::Report report;
    if (workload == "grid_sweep") {
      report = perfbench::run_grid_sweep(opts);
    } else if (workload == "protocol_runs") {
      report = perfbench::run_protocol_runs(opts);
    } else if (workload == "schedule_fuzz") {
      report = perfbench::run_schedule_fuzz(opts);
    } else {
      return usage();
    }
    perfbench::print_report(report);
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bsm_perfbench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }
}

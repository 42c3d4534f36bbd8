// Allocation counting for the benchmark binary. alloc_count.cpp replaces
// the global operator new: every plain allocation bumps the calling
// thread's tally, so a traced call can be sampled for the allocations it
// made (the technique of tests/scale_guard_test.cpp, without the live-byte
// header). No allocation touches shared state; a thread's tally joins a
// process-wide total when the thread exits. Aligned new is not replaced;
// the measured library paths allocate no over-aligned types.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTally {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;

  AllocTally& operator+=(const AllocTally& other) {
    count += other.count;
    bytes += other.bytes;
    return *this;
  }
  friend AllocTally operator-(AllocTally a, const AllocTally& b) {
    return {a.count - b.count, a.bytes - b.bytes};
  }
};

/// Allocations made by the calling thread since it started.
[[nodiscard]] AllocTally thread_allocs() noexcept;

/// Allocations made by every thread that has exited, over their lifetimes:
/// how a caller counts what short-lived pool workers allocated.
[[nodiscard]] AllocTally exited_thread_allocs() noexcept;

}  // namespace perfbench

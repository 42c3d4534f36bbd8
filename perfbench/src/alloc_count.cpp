#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_exited_count{0};
std::atomic<std::uint64_t> g_exited_bytes{0};

/// One thread's tally. Its destructor, run at thread exit, folds it into
/// the exited-thread totals; the glibc bookkeeping that runs after it
/// frees with free(), not operator delete, so nothing counts afterwards.
struct ThreadTally {
  AllocTally tally;
  ~ThreadTally() {
    g_exited_count.fetch_add(tally.count, std::memory_order_relaxed);
    g_exited_bytes.fetch_add(tally.bytes, std::memory_order_relaxed);
  }
};

thread_local ThreadTally t_thread;

void* counted_new(std::size_t size) {
  AllocTally& tally = t_thread.tally;
  ++tally.count;
  tally.bytes += size;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

AllocTally thread_allocs() noexcept { return t_thread.tally; }

AllocTally exited_thread_allocs() noexcept {
  return {g_exited_count.load(std::memory_order_relaxed),
          g_exited_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::counted_new(size); }
void* operator new[](std::size_t size) { return perfbench::counted_new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

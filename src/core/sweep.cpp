#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/recorder.hpp"

namespace bsm::core {

namespace detail {

namespace {

/// A contiguous run of cell indices, tagged with the worker whose deque it
/// was dealt to (so executions by anyone else count as steals).
struct Chunk {
  std::size_t begin = 0;
  std::size_t end = 0;
  unsigned owner = 0;
};

/// One worker's chunk queue. The owner drains from the front — walking its
/// contiguous range in order, for locality — while thieves take from the
/// back, the far end of the range, where the owner would arrive last. A
/// plain mutex per deque is deliberate: a sweep cell is a whole protocol
/// simulation (micro- to milliseconds), so queue operations are orders of
/// magnitude off the critical path and the simplicity buys straightforward
/// sanitizer-clean semantics.
class ChunkDeque {
 public:
  void push_back(const Chunk& c) {
    const std::lock_guard<std::mutex> lock(mutex_);
    chunks_.push_back(c);
  }

  [[nodiscard]] bool pop_front(Chunk& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (chunks_.empty()) return false;
    out = chunks_.front();
    chunks_.pop_front();
    return true;
  }

  [[nodiscard]] bool steal_back(Chunk& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (chunks_.empty()) return false;
    out = chunks_.back();
    chunks_.pop_back();
    return true;
  }

 private:
  std::mutex mutex_;
  std::deque<Chunk> chunks_;
};

[[nodiscard]] std::size_t resolve_chunk_cells(std::size_t count, unsigned threads,
                                              std::size_t requested) {
  if (requested > 0) return std::min(requested, count);
  // ~8 chunks per worker: enough slack for thieves without shredding the
  // contiguous ranges that make the owner's front-drain cache-friendly.
  return std::max<std::size_t>(1, count / (static_cast<std::size_t>(threads) * 8));
}

/// Contiguous per-worker [begin, end) partitions of [0, count). Both
/// schedules deal from this one function, which is what guarantees that an
/// undisturbed stealing worker processes exactly the static partition —
/// the invariant the steal-vs-static bench comparison relies on.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> partitions(std::size_t count,
                                                                          unsigned threads) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(threads);
  const std::size_t base = count / threads;
  const std::size_t extra = count % threads;
  std::size_t begin = 0;
  for (unsigned w = 0; w < threads; ++w) {
    const std::size_t end = begin + base + (w < extra ? 1 : 0);
    out.emplace_back(begin, end);
    begin = end;
  }
  return out;
}

}  // namespace

unsigned resolve_threads(std::size_t count, unsigned threads) {
  if (count == 0) return 1;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (threads > count) threads = static_cast<unsigned>(count);
  return threads;
}

SweepStats parallel_for_workers(std::size_t count, const ForOptions& opts,
                                const std::function<void(std::size_t, unsigned)>& fn) {
  SweepStats stats;
  stats.threads = resolve_threads(count, opts.threads);
  stats.cells = count;
  if (count == 0) return stats;

  if (stats.threads <= 1) {
    stats.chunks = 1;
    obs::Recorder* const rec = obs::current();
    const std::uint64_t t0 = rec ? rec->now_ns() : 0;
    for (std::size_t i = 0; i < count; ++i) fn(i, 0);
    if (rec != nullptr) {
      rec->record(obs::Span::SweepChunk, t0, rec->now_ns(), opts.index_base);
      rec->count(obs::Counter::Chunks);
    }
    return stats;
  }

  const unsigned threads = stats.threads;
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto guarded = [&](std::size_t i, unsigned worker) {
    try {
      fn(i, worker);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  // Declared ahead of the pool so the deques outlive every worker that
  // references them, even if a mid-spawn failure unwinds before the join.
  std::vector<ChunkDeque> deques;
  std::atomic<std::uint64_t> steals{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);

  const auto parts = partitions(count, threads);

  if (opts.schedule == Schedule::Static) {
    // Fixed contiguous partitions, one per worker: the baseline the
    // stealing scheduler is benchmarked against (sweep/steal_skewed vs
    // sweep/static_skewed).
    stats.chunks = threads;
    const std::size_t index_base = opts.index_base;
    for (unsigned w = 0; w < threads; ++w) {
      const auto [begin, end] = parts[w];
      pool.emplace_back([&guarded, begin, end, w, index_base] {
        obs::set_thread_label(w + 1);
        obs::Recorder* const rec = obs::current();
        const std::uint64_t t0 = rec ? rec->now_ns() : 0;
        for (std::size_t i = begin; i < end; ++i) guarded(i, w);
        if (rec != nullptr) {
          rec->record(obs::Span::SweepChunk, t0, rec->now_ns(), index_base + begin);
          rec->count(obs::Counter::Chunks);
        }
      });
    }
  } else {
    // Worker w's deque holds the w-th contiguous partition, split into
    // chunks, so an undisturbed worker processes exactly the static
    // partition — stealing only rebalances what skew leaves behind.
    const std::size_t chunk_cells = resolve_chunk_cells(count, threads, opts.chunk_cells);
    deques = std::vector<ChunkDeque>(threads);
    std::size_t total_chunks = 0;
    for (unsigned w = 0; w < threads; ++w) {
      const auto [begin, end] = parts[w];
      for (std::size_t c = begin; c < end; c += chunk_cells) {
        deques[w].push_back({c, std::min(c + chunk_cells, end), w});
        ++total_chunks;
      }
    }
    stats.chunks = total_chunks;

    const std::size_t index_base = opts.index_base;
    for (unsigned w = 0; w < threads; ++w) {
      pool.emplace_back([&deques, &guarded, &steals, threads, w, index_base] {
        obs::set_thread_label(w + 1);
        obs::Recorder* const rec = obs::current();
        Chunk chunk;
        while (true) {
          if (deques[w].pop_front(chunk)) {
            // fall through to execute
          } else {
            // Own deque drained: scan victims starting past ourselves so
            // thieves spread out instead of mobbing worker 0.
            bool found = false;
            for (unsigned v = 1; v < threads && !found; ++v) {
              found = deques[(w + v) % threads].steal_back(chunk);
            }
            // No work anywhere. Chunks are never re-queued, so empty
            // deques everywhere means the sweep's tail is already being
            // executed by its last holders: we are done.
            if (!found) {
              if (rec != nullptr) rec->count(obs::Counter::IdleExits);
              return;
            }
          }
          if (chunk.owner != w) {
            steals.fetch_add(1, std::memory_order_relaxed);
            if (rec != nullptr) rec->count(obs::Counter::Steals);
          }
          const std::uint64_t t0 = rec ? rec->now_ns() : 0;
          for (std::size_t i = chunk.begin; i < chunk.end; ++i) guarded(i, w);
          if (rec != nullptr) {
            rec->record(obs::Span::SweepChunk, t0, rec->now_ns(), index_base + chunk.begin);
            rec->count(obs::Counter::Chunks);
          }
        }
      });
    }
  }

  for (auto& t : pool) t.join();
  stats.steals = steals.load(std::memory_order_relaxed);
  if (first_error) std::rethrow_exception(first_error);
  return stats;
}

}  // namespace detail

CellResult run_scenario(const ScenarioSpec& scenario, OracleCache* oracle, SweepArena* arena,
                        OracleCacheStats* counters) {
  CellResult result;
  result.scenario = scenario;
  std::optional<ProtocolSpec> resolved;
  if (oracle != nullptr) {
    auto verdict = oracle->lookup(oracle_key(scenario), scenario.config, counters);
    result.solvable = verdict.solvable;
    resolved = std::move(verdict.protocol);
  } else {
    result.solvable = solvable(scenario.config);
  }
  if (!result.solvable && !scenario.forced_spec.has_value()) return result;
  result.outcome = run_bsm(to_run_spec(scenario, arena, resolved));
  return result;
}

std::vector<CellResult> run_sweep(const std::vector<ScenarioSpec>& cells, SweepOptions opts,
                                  SweepStats* stats) {
  std::vector<CellResult> results(cells.size());
  const unsigned workers = detail::resolve_threads(cells.size(), opts.threads);

  // One arena and one set of cache counters per worker, touched only by
  // that worker — reused across all its cells, folded together after the
  // join (no shared mutable state on the cell path).
  std::vector<SweepArena> arenas(workers);
  std::vector<OracleCacheStats> counters(workers);

  SweepStats local = detail::parallel_for_workers(
      cells.size(), {opts.threads, opts.schedule, opts.chunk_cells},
      [&](std::size_t i, unsigned worker) {
        obs::Recorder* const rec = obs::current();
        const std::uint64_t t0 = rec ? rec->now_ns() : 0;
        results[i] = run_scenario(cells[i], opts.oracle, &arenas[worker], &counters[worker]);
        if (rec != nullptr) {
          rec->record(obs::Span::SweepCell, t0, rec->now_ns(), i);
          rec->count(obs::Counter::CellsDone);
        }
      });
  for (const auto& c : counters) local.oracle += c;
  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace bsm::core

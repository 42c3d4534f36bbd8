#include "obs/recorder.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace bsm::obs {

namespace {

/// Each Recorder gets a fresh generation so thread_local caches from a
/// destroyed recorder (possibly re-allocated at the same address) are
/// never trusted.
std::atomic<std::uint64_t> g_generation{0};
std::atomic<Recorder*> g_current{nullptr};

thread_local std::uint64_t t_cached_generation = 0;
thread_local void* t_cached_log = nullptr;

[[nodiscard]] std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

constexpr const char* kSpanNames[kSpanKinds] = {
    "engine/assemble", "engine/policy", "engine/deliver", "engine/on_round", "sweep/chunk",
    "sweep/cell", "oracle/hit", "oracle/miss", "shard/emit", "shard/checkpoint", "shard/flush",
    "sched/eval"};

constexpr const char* kSpanKeys[kSpanKinds] = {
    "engine_assemble", "engine_policy", "engine_deliver", "engine_on_round", "sweep_chunk",
    "sweep_cell", "oracle_hit", "oracle_miss", "shard_emit", "shard_checkpoint", "shard_flush",
    "sched_eval"};

constexpr const char* kCounterKeys[kCounterKinds] = {
    "engine_rounds", "cells_done", "chunks", "steals", "idle_exits", "oracle_hits",
    "oracle_misses", "oracle_inserts", "cells_emitted", "checkpoints", "flushes", "evals"};

/// Category string for the trace, derived from the span name prefix.
[[nodiscard]] std::string span_category(Span s) {
  const std::string name = span_name(s);
  const auto slash = name.find('/');
  return slash == std::string::npos ? name : name.substr(0, slash);
}

/// Append ts/dur in microseconds with sub-us precision preserved.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

}  // namespace

const char* span_name(Span s) noexcept { return kSpanNames[static_cast<std::size_t>(s)]; }
const char* span_key(Span s) noexcept { return kSpanKeys[static_cast<std::size_t>(s)]; }
const char* counter_key(Counter c) noexcept { return kCounterKeys[static_cast<std::size_t>(c)]; }

std::size_t bucket_index(std::uint64_t ns) noexcept {
  if (ns < 2) return 0;  // 0 ns and 1 ns both land in bucket 0
  std::size_t i = 63 - static_cast<std::size_t>(__builtin_clzll(ns));
  return i < kHistogramBuckets ? i : kHistogramBuckets - 1;
}

std::uint64_t bucket_lower_bound(std::size_t bucket) noexcept {
  return bucket == 0 ? 0 : (std::uint64_t{1} << bucket);
}

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  if (other.max_ns > max_ns) max_ns = other.max_ns;
}

std::uint64_t Histogram::percentile_ns(double p) const noexcept {
  if (count == 0) return 0;
  // Rank of the percentile sample, 1-based, clamped into [1, count].
  auto rank = static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count) + 0.5);
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // Report the exact max for the top bucket in use — more truthful
      // than a power-of-two lower bound for p99/max on skewed data.
      if (seen == count && buckets[i] > 0 && i == bucket_index(max_ns)) return max_ns;
      return bucket_lower_bound(i);
    }
  }
  return max_ns;
}

Recorder::Recorder() : Recorder(Options{}) {}

Recorder::Recorder(Options opts)
    : opts_(opts),
      generation_(g_generation.fetch_add(1, std::memory_order_relaxed) + 1),
      epoch_ns_(steady_now_ns()) {
  label_thread(0);  // the constructing/coordinating thread is tid 0
}

Recorder::~Recorder() {
  // Safety net: never leave a dangling global install behind.
  Recorder* expected = this;
  g_current.compare_exchange_strong(expected, nullptr, std::memory_order_relaxed);
}

std::uint64_t Recorder::now_ns() const noexcept { return steady_now_ns() - epoch_ns_; }

Recorder::ThreadLog& Recorder::register_thread() {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  logs_.push_back(std::make_unique<ThreadLog>());
  ThreadLog& log = *logs_.back();
  log.order = logs_.size() - 1;
  if (opts_.capture_spans) log.spans.reserve(1024);
  return log;
}

Recorder::ThreadLog& Recorder::local() {
  if (t_cached_generation != generation_ || t_cached_log == nullptr) {
    t_cached_log = &register_thread();
    t_cached_generation = generation_;
  }
  return *static_cast<ThreadLog*>(t_cached_log);
}

void Recorder::record(Span s, std::uint64_t start_ns, std::uint64_t end_ns, std::uint64_t arg) {
  ThreadLog& log = local();
  const std::uint64_t dur = end_ns >= start_ns ? end_ns - start_ns : 0;
  log.hists[static_cast<std::size_t>(s)].record(dur);
  if (opts_.capture_spans) {
    if (log.spans.size() < opts_.span_cap) {
      log.spans.push_back(SpanEvent{start_ns, end_ns, arg, s});
    } else {
      ++log.dropped;
    }
  }
}

void Recorder::count(Counter c, std::uint64_t delta) {
  local().counters[static_cast<std::size_t>(c)].fetch_add(delta, std::memory_order_relaxed);
}

void Recorder::label_thread(std::uint32_t tid) { local().label = tid; }

std::uint32_t Recorder::export_tid(const ThreadLog& log) noexcept {
  return log.label != kUnlabeled ? log.label : 1000 + static_cast<std::uint32_t>(log.order);
}

std::uint64_t Recorder::counter_total(Counter c) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::uint64_t total = 0;
  for (const auto& log : logs_) {
    total += log->counters[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  }
  return total;
}

Histogram Recorder::histogram(Span s) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  Histogram merged;
  for (const auto& log : logs_) merged.merge(log->hists[static_cast<std::size_t>(s)]);
  return merged;
}

std::uint64_t Recorder::spans_captured() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::uint64_t total = 0;
  for (const auto& log : logs_) total += log->spans.size();
  return total;
}

std::uint64_t Recorder::spans_dropped() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::uint64_t total = 0;
  for (const auto& log : logs_) total += log->dropped;
  return total;
}

std::string Recorder::chrome_trace_json() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);

  // Merge logs by export tid so re-created pool threads (same label
  // across blocks) render as one stable trace row.
  std::vector<std::pair<std::uint32_t, const ThreadLog*>> rows;
  rows.reserve(logs_.size());
  for (const auto& log : logs_) rows.emplace_back(export_tid(*log), log.get());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  std::string out;
  out.reserve(1 << 16);
  out += "{\"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) out += ",\n";
    first = false;
    out += event;
  };

  emit("{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", "
       "\"args\": {\"name\": \"bsm\"}}");
  std::uint32_t last_tid = kUnlabeled;
  for (const auto& [tid, log] : rows) {
    if (tid == last_tid) continue;
    last_tid = tid;
    std::string name = tid == 0 ? std::string("main") : "worker-" + std::to_string(tid);
    emit("{\"ph\": \"M\", \"pid\": 1, \"tid\": " + std::to_string(tid) +
         ", \"name\": \"thread_name\", \"args\": {\"name\": \"" + name + "\"}}");
  }

  // Complete events, plus the cell-completion samples that back the
  // derived cells_done counter track.
  std::vector<std::uint64_t> cell_ends;
  for (const auto& [tid, log] : rows) {
    for (const SpanEvent& ev : log->spans) {
      if (ev.kind == Span::SweepCell) cell_ends.push_back(ev.end_ns);
      std::string e = "{\"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(tid) +
                      ", \"name\": \"" + span_name(ev.kind) + "\", \"cat\": \"" +
                      span_category(ev.kind) + "\", \"ts\": ";
      append_us(e, ev.start_ns);
      e += ", \"dur\": ";
      append_us(e, ev.end_ns >= ev.start_ns ? ev.end_ns - ev.start_ns : 0);
      e += ", \"args\": {\"arg\": " + std::to_string(ev.arg) + "}}";
      emit(e);
    }
  }

  // Counter track: cumulative cells done over time, strided to a
  // bounded number of samples so huge sweeps stay loadable.
  if (!cell_ends.empty()) {
    std::sort(cell_ends.begin(), cell_ends.end());
    const std::size_t kMaxSamples = 512;
    const std::size_t stride = std::max<std::size_t>(1, cell_ends.size() / kMaxSamples);
    for (std::size_t i = 0; i < cell_ends.size(); i += stride) {
      std::string e = "{\"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"name\": \"cells_done\", \"ts\": ";
      append_us(e, cell_ends[i]);
      e += ", \"args\": {\"cells\": " + std::to_string(i + 1) + "}}";
      emit(e);
    }
    std::string e = "{\"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"name\": \"cells_done\", \"ts\": ";
    append_us(e, cell_ends.back());
    e += ", \"args\": {\"cells\": " + std::to_string(cell_ends.size()) + "}}";
    emit(e);
  }

  out += "\n]}\n";
  return out;
}

std::string Recorder::metrics_json() const {
  std::ostringstream out;
  out << "{\"version\": 2, \"spans\": " << spans_captured()
      << ", \"spans_dropped\": " << spans_dropped() << ", \"counters\": {";
  for (std::size_t c = 0; c < kCounterKinds; ++c) {
    if (c != 0) out << ", ";
    out << "\"" << counter_key(static_cast<Counter>(c)) << "\": "
        << counter_total(static_cast<Counter>(c));
  }
  out << "}, \"histograms\": {";
  for (std::size_t s = 0; s < kSpanKinds; ++s) {
    const Histogram h = histogram(static_cast<Span>(s));
    if (s != 0) out << ", ";
    out << "\"" << span_key(static_cast<Span>(s)) << "\": {\"count\": " << h.count
        << ", \"p50_ns\": " << h.percentile_ns(50) << ", \"p90_ns\": " << h.percentile_ns(90)
        << ", \"p99_ns\": " << h.percentile_ns(99) << ", \"max_ns\": " << h.max_ns << "}";
  }
  out << "}}";
  return out.str();
}

Recorder* current() noexcept { return g_current.load(std::memory_order_relaxed); }

void install(Recorder* rec) noexcept { g_current.store(rec, std::memory_order_relaxed); }

void set_thread_label(std::uint32_t tid) {
  if (Recorder* rec = current()) rec->label_thread(tid);
}

}  // namespace bsm::obs

// The obs layer's contracts:
//
//  1. Lossless concurrent capture — N threads hammering record()/count()
//     lose no events and no counter increments (each thread owns its
//     buffers; counters sum exactly).
//  2. Pinned histogram bucketing — bucket i covers [2^i, 2^(i+1)) ns,
//     with 0 and 1 ns in bucket 0; percentiles walk the merged buckets.
//  3. Stable trace identity — the Chrome trace-event JSON parses, labeled
//     threads keep their tid across re-created pool threads, and the
//     derived counter track is present.
//  4. Determinism — instrumentation under an installed recorder changes
//     no sweep results (spot-checked here; the full byte-identity
//     contract lives in cli_contract_test.cpp and bench/cases_obs.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.hpp"
#include "obs/progress.hpp"
#include "obs/recorder.hpp"

namespace bsm::obs {
namespace {

/// RAII install/uninstall so a failing test never leaks a global recorder.
struct Installed {
  explicit Installed(Recorder& rec) { install(&rec); }
  ~Installed() { install(nullptr); }
};

TEST(ObsRecorder, DisabledFastPathIsNull) {
  ASSERT_EQ(current(), nullptr);
  set_thread_label(7);  // must be a no-op, not a crash
  ASSERT_EQ(current(), nullptr);
}

TEST(ObsRecorder, BucketBoundariesArePinned) {
  EXPECT_EQ(bucket_index(0), 0U);
  EXPECT_EQ(bucket_index(1), 0U);
  EXPECT_EQ(bucket_index(2), 1U);
  EXPECT_EQ(bucket_index(3), 1U);
  EXPECT_EQ(bucket_index(4), 2U);
  EXPECT_EQ(bucket_index(1023), 9U);
  EXPECT_EQ(bucket_index(1024), 10U);
  EXPECT_EQ(bucket_index(UINT64_MAX), 63U);
  EXPECT_EQ(bucket_lower_bound(0), 0U);
  EXPECT_EQ(bucket_lower_bound(1), 2U);
  EXPECT_EQ(bucket_lower_bound(10), 1024U);
  // Round-trip: every duration lands in a bucket whose range contains it.
  for (const std::uint64_t ns : {0ULL, 1ULL, 2ULL, 7ULL, 63ULL, 64ULL, 999ULL, 123456789ULL}) {
    const std::size_t b = bucket_index(ns);
    EXPECT_GE(ns, bucket_lower_bound(b)) << ns;
    if (b + 1 < kHistogramBuckets) EXPECT_LT(ns, bucket_lower_bound(b + 1)) << ns;
  }
}

TEST(ObsRecorder, HistogramPercentilesWalkBuckets) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(10);    // bucket 3 ([8,16))
  for (int i = 0; i < 10; ++i) h.record(5000);  // bucket 12 ([4096,8192))
  EXPECT_EQ(h.count, 100U);
  EXPECT_EQ(h.max_ns, 5000U);
  EXPECT_EQ(h.percentile_ns(50), 8U);
  EXPECT_EQ(h.percentile_ns(90), 8U);
  // The top bucket in use reports the exact max, not the bucket floor.
  EXPECT_EQ(h.percentile_ns(99), 5000U);
  Histogram empty;
  EXPECT_EQ(empty.percentile_ns(50), 0U);
}

TEST(ObsRecorder, ConcurrentEmissionLosesNothing) {
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  Recorder rec({.capture_spans = true});
  Installed guard(rec);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&rec, t] {
      rec.label_thread(t + 1);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        rec.record(Span::SweepCell, i, i + 1, t);
        rec.count(Counter::CellsDone);
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(rec.spans_captured(), kThreads * kPerThread);
  EXPECT_EQ(rec.spans_dropped(), 0U);
  EXPECT_EQ(rec.counter_total(Counter::CellsDone), kThreads * kPerThread);
  EXPECT_EQ(rec.histogram(Span::SweepCell).count, kThreads * kPerThread);
}

TEST(ObsRecorder, SpanCapBoundsMemoryAndCountsDrops) {
  Recorder rec({.capture_spans = true, .span_cap = 100});
  for (int i = 0; i < 250; ++i) rec.record(Span::SchedEval, 0, 1);
  EXPECT_EQ(rec.spans_captured(), 100U);
  EXPECT_EQ(rec.spans_dropped(), 150U);
  // Histograms keep counting past the cap: metrics stay exact.
  EXPECT_EQ(rec.histogram(Span::SchedEval).count, 250U);
}

TEST(ObsRecorder, TraceJsonParsesWithStableTids) {
  Recorder rec({.capture_spans = true});
  // Two "pool generations" labeling the same worker tid, as the sharded
  // sweep does per block: both must land on the same trace row.
  for (int generation = 0; generation < 2; ++generation) {
    std::thread worker([&rec] {
      rec.label_thread(1);
      rec.record(Span::SweepCell, 10, 20, 42);
    });
    worker.join();
  }
  rec.record(Span::EngineAssemble, 1, 2, 0);  // main thread, tid 0

  const std::string json = rec.chrome_trace_json();
  // Events from both generations carry the label's tid, not an OS tid.
  EXPECT_NE(json.find("\"name\": \"sweep/cell\", \"cat\": \"sweep\""), std::string::npos);
  EXPECT_EQ(json.find("\"tid\": 1000"), std::string::npos) << "labeled thread fell back to "
                                                           << "an unlabeled tid:\n"
                                                           << json;
  EXPECT_NE(json.find("\"name\": \"thread_name\", \"args\": {\"name\": \"worker-1\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"thread_name\", \"args\": {\"name\": \"main\"}"),
            std::string::npos);
  // Derived counter track samples cells over time.
  EXPECT_NE(json.find("\"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"name\": \"cells_done\""),
            std::string::npos);
  // Exactly one thread_name row for the shared label.
  std::size_t rows = 0;
  for (std::size_t pos = json.find("worker-1"); pos != std::string::npos;
       pos = json.find("worker-1", pos + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, 1U);
}

TEST(ObsRecorder, MetricsJsonIsSingleLineWithFixedKeys) {
  Recorder rec;
  rec.record(Span::OracleHit, 0, 100);
  rec.count(Counter::OracleHits);
  const std::string m = rec.metrics_json();
  EXPECT_EQ(m.find('\n'), std::string::npos) << "metrics must render on one line";
  EXPECT_EQ(m.rfind("{\"version\": 2, ", 0), 0U) << m;
  for (std::size_t c = 0; c < kCounterKinds; ++c) {
    EXPECT_NE(m.find("\"" + std::string(counter_key(static_cast<Counter>(c))) + "\": "),
              std::string::npos);
  }
  for (std::size_t s = 0; s < kSpanKinds; ++s) {
    EXPECT_NE(m.find("\"" + std::string(span_key(static_cast<Span>(s))) + "\": {\"count\": "),
              std::string::npos);
  }
  EXPECT_NE(m.find("\"oracle_hit\": {\"count\": 1, "), std::string::npos);
}

TEST(ObsRecorder, SweepResultsUnchangedUnderRecorder) {
  core::SweepGrid grid;
  grid.topologies = {net::TopologyKind::FullyConnected};
  grid.auths = {true};
  grid.ks = {2, 3};
  grid.seeds = {1, 2};
  grid.batteries = {core::Battery::Silent, core::Battery::Liars};
  const auto cells = grid.cells();

  core::SweepOptions opts;
  core::OracleCache plain_cache;
  opts.oracle = &plain_cache;
  opts.threads = 1;
  const auto plain = core::run_sweep(cells, opts);

  Recorder rec({.capture_spans = true});
  Installed guard(rec);
  core::OracleCache obs_cache;
  opts.oracle = &obs_cache;
  opts.threads = 4;
  const auto observed = core::run_sweep(cells, opts);

  ASSERT_EQ(plain.size(), observed.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ASSERT_EQ(plain[i].solvable, observed[i].solvable) << i;
    ASSERT_EQ(plain[i].outcome.has_value(), observed[i].outcome.has_value()) << i;
    if (plain[i].outcome.has_value()) {
      EXPECT_EQ(plain[i].outcome->view_hashes, observed[i].outcome->view_hashes) << i;
      EXPECT_EQ(plain[i].outcome->rounds, observed[i].outcome->rounds) << i;
    }
  }
  EXPECT_EQ(rec.counter_total(Counter::CellsDone), cells.size());
  EXPECT_GT(rec.counter_total(Counter::EngineRounds), 0U);
}

TEST(ObsProgress, RenderLineFormats) {
  EXPECT_EQ(render_progress_line(512, 1728, 2.0, "cells", 3, 17, 7, 1),
            "progress: 512/1728 cells (29.6%) | 256.0 cells/s | eta 5s | steals 3/17 chunks | "
            "oracle hit 87.5%");
  // Unknown total: no percent, no ETA; zero chunks/lookups: fields omitted.
  EXPECT_EQ(render_progress_line(64, 0, 4.0, "execs", 0, 0, 0, 0),
            "progress: 64 execs | 16.0 execs/s");
}

}  // namespace
}  // namespace bsm::obs

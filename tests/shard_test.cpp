// The sharded-sweep layer's contract (src/core/shard.hpp), at the byte
// level:
//
//  1. Partition — ShardSpec slices are a balanced, exact tiling of the
//     grid, recomputable from "i/N" alone.
//  2. Byte-identity — merging the JSONL documents of any complete shard
//     set reproduces the single-process (1/1) document bit-for-bit, at
//     any shard count and any thread count.
//  3. Crash/resume — a file truncated at ANY byte and rerun with resume
//     converges to the uninterrupted bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/oracle.hpp"
#include "core/shard.hpp"

namespace bsm::core {
namespace {

namespace fs = std::filesystem;

/// 144 cells (>= the 128-cell acceptance floor): 2 topologies x 2 auths x
/// 9 (tl, tr) pairs at k=2 x 2 batteries x 2 seeds.
[[nodiscard]] std::vector<ScenarioSpec> shard_grid() {
  SweepGrid grid;
  grid.topologies = {net::TopologyKind::FullyConnected, net::TopologyKind::OneSided};
  grid.auths = {false, true};
  grid.ks = {2};
  grid.seeds = {1, 2};
  grid.batteries = {Battery::Silent, Battery::Liars};
  return grid.cells();
}

/// Stream one shard to a string with its own oracle (each shard acts as a
/// separate process; nothing shared through the global cache).
[[nodiscard]] std::string stream_to_string(const std::vector<ScenarioSpec>& cells,
                                           ShardSpec shard, unsigned threads,
                                           std::size_t checkpoint_every = 5) {
  OracleCache cache;
  StreamOptions opts;
  opts.shard = shard;
  opts.checkpoint_every = checkpoint_every;
  opts.sweep.threads = threads;
  opts.sweep.oracle = &cache;
  std::ostringstream out;
  (void)stream_sweep(cells, opts, out);
  return out.str();
}

/// A fresh per-test scratch directory under the system temp dir.
[[nodiscard]] fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("bsm_shard_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

[[nodiscard]] std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST(ShardSpec, ParseAcceptsExactlyWellFormedSplits) {
  const auto spec = ShardSpec::parse("3/7");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->index, 3U);
  EXPECT_EQ(spec->count, 7U);
  EXPECT_EQ(spec->str(), "3/7");
  EXPECT_EQ(ShardSpec::parse("1/1"), (ShardSpec{1, 1}));

  for (const char* bad : {"", "/", "3", "0/4", "5/4", "3/0", "-1/4", "1/4/2", "a/b", "1 /4",
                          "1/ 4", "01x/4", "3/100001"}) {
    EXPECT_FALSE(ShardSpec::parse(bad).has_value()) << "accepted: " << bad;
  }
}

TEST(ShardSpec, RangesAreABalancedExactTiling) {
  for (std::size_t total : {0U, 1U, 7U, 144U, 1000U}) {
    for (std::uint32_t n : {1U, 2U, 3U, 7U, 13U}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      std::size_t min_len = total;
      std::size_t max_len = 0;
      for (std::uint32_t i = 1; i <= n; ++i) {
        const auto [begin, end] = ShardSpec{i, n}.range(total);
        EXPECT_EQ(begin, prev_end) << i << "/" << n << " of " << total;
        EXPECT_LE(begin, end);
        prev_end = end;
        covered += end - begin;
        min_len = std::min(min_len, end - begin);
        max_len = std::max(max_len, end - begin);
      }
      EXPECT_EQ(prev_end, total);
      EXPECT_EQ(covered, total);
      EXPECT_LE(max_len - min_len, 1U) << "unbalanced " << n << "-way split of " << total;
    }
  }
}

TEST(Shard, GridDigestDetectsAnyCellChange) {
  const auto cells = shard_grid();
  const auto digest = grid_digest(cells);
  EXPECT_EQ(digest, grid_digest(shard_grid())) << "digest must be reproducible";

  auto reordered = cells;
  std::swap(reordered[0], reordered[1]);
  EXPECT_NE(grid_digest(reordered), digest) << "digest must be order-dependent";

  auto edited = cells;
  edited[7].input_seed ^= 1;
  EXPECT_NE(grid_digest(edited), digest);

  EXPECT_NE(grid_digest({}), grid_digest({cells[0]}));
}

TEST(Shard, MergedShardsAreByteIdenticalToSingleProcessAtAnyShardAndThreadCount) {
  const auto cells = shard_grid();
  ASSERT_GE(cells.size(), 128U) << "the acceptance grid must have at least 128 cells";

  const std::string single = stream_to_string(cells, {1, 1}, /*threads=*/1);
  ASSERT_FALSE(single.empty());

  for (const std::uint32_t n : {1U, 2U, 4U, 7U}) {
    std::vector<std::string> docs;
    for (std::uint32_t i = 1; i <= n; ++i) {
      // Thread count varies per shard: it must never reach the bytes.
      docs.push_back(stream_to_string(cells, {i, n}, /*threads=*/1 + i % 4));
    }
    // Merge in reversed order: document order must not matter either.
    std::reverse(docs.begin(), docs.end());
    std::string error;
    const auto merged = merge_jsonl(docs, &error);
    ASSERT_TRUE(merged.has_value()) << "n=" << n << ": " << error;
    EXPECT_EQ(*merged, single) << "merged " << n << "-way split diverged from 1/1";
  }
}

TEST(Shard, StreamStatsAccountForTheWholeShard) {
  const auto cells = shard_grid();
  OracleCache cache;
  StreamOptions opts;
  opts.shard = {2, 3};
  opts.checkpoint_every = 5;
  opts.sweep.oracle = &cache;
  std::ostringstream out;
  const StreamStats st = stream_sweep(cells, opts, out);

  const auto [begin, end] = opts.shard.range(cells.size());
  EXPECT_EQ(st.cells, end - begin);
  EXPECT_EQ(st.emitted, end - begin);
  EXPECT_EQ(st.resumed, 0U);
  EXPECT_LE(st.ran, st.cells);
  EXPECT_GT(st.ran, 0U);
  EXPECT_TRUE(st.all_ok);
  EXPECT_NE(st.digest, 0U);

  // The digest folds the emitted cell lines, so two runs of the same shard
  // agree and a different shard disagrees.
  OracleCache cache2;
  opts.sweep.oracle = &cache2;
  std::ostringstream again;
  EXPECT_EQ(stream_sweep(cells, opts, again).digest, st.digest);
  opts.shard = {1, 3};
  std::ostringstream other;
  EXPECT_NE(stream_sweep(cells, opts, other).digest, st.digest);
}

TEST(Shard, ResumeConvergesFromAnyTruncationPoint) {
  const auto cells = shard_grid();
  const auto dir = scratch_dir("resume");
  const fs::path file = dir / "shard.jsonl";

  StreamOptions opts;
  opts.shard = {1, 2};
  opts.checkpoint_every = 5;
  OracleCache cache;
  opts.sweep.oracle = &cache;

  const auto pristine_res = stream_sweep_file(cells, opts, file.string(), /*resume=*/false);
  ASSERT_TRUE(pristine_res.error.empty()) << pristine_res.error;
  const std::string pristine = read_file(file);
  ASSERT_FALSE(pristine.empty());

  // Kill points: empty file, torn header, exact line boundaries around a
  // checkpoint group, torn cell mid-line, torn summary, and the midpoint.
  const auto first_nl = pristine.find('\n');
  const auto second_nl = pristine.find('\n', first_nl + 1);
  std::vector<std::size_t> cuts = {0,
                                   first_nl / 2,
                                   first_nl,      // header, no newline
                                   first_nl + 1,  // header line complete
                                   second_nl + 1,
                                   pristine.size() / 3,
                                   pristine.size() / 2,
                                   2 * pristine.size() / 3,
                                   pristine.size() - 5,  // torn summary
                                   pristine.size() - 1};
  for (const std::size_t cut : cuts) {
    {
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      out.write(pristine.data(), static_cast<std::streamsize>(cut));
    }
    OracleCache resume_cache;
    StreamOptions resume_opts = opts;
    resume_opts.sweep.oracle = &resume_cache;
    const auto res = stream_sweep_file(cells, resume_opts, file.string(), /*resume=*/true);
    ASSERT_TRUE(res.error.empty()) << "cut at byte " << cut << ": " << res.error;
    EXPECT_FALSE(res.resumed_complete);
    EXPECT_EQ(read_file(file), pristine) << "divergent bytes after resume from cut " << cut;
    EXPECT_EQ(res.stats.resumed + res.stats.emitted, res.stats.cells);
  }

  // Resuming the complete file is a no-op that reports the stored verdict.
  const auto done = stream_sweep_file(cells, opts, file.string(), /*resume=*/true);
  ASSERT_TRUE(done.error.empty()) << done.error;
  EXPECT_TRUE(done.resumed_complete);
  EXPECT_EQ(done.stats.emitted, 0U);
  EXPECT_EQ(done.stats.resumed, done.stats.cells);
  EXPECT_EQ(read_file(file), pristine);
}

TEST(Shard, ResumeRefusesAForeignHeader) {
  const auto cells = shard_grid();
  const auto dir = scratch_dir("foreign");
  const fs::path file = dir / "shard.jsonl";

  StreamOptions opts;
  opts.shard = {1, 2};
  OracleCache cache;
  opts.sweep.oracle = &cache;
  ASSERT_TRUE(stream_sweep_file(cells, opts, file.string(), false).error.empty());

  // Same file, different shard spec: a complete mismatching header must be
  // a hard error, not an overwrite.
  StreamOptions other = opts;
  other.shard = {2, 2};
  const auto res = stream_sweep_file(cells, other, file.string(), /*resume=*/true);
  EXPECT_FALSE(res.error.empty());
  EXPECT_NE(res.error.find("header"), std::string::npos) << res.error;

  // A different grid (one cell edited) must be refused too.
  auto edited = cells;
  edited[3].input_seed ^= 1;
  const auto res2 = stream_sweep_file(edited, opts, file.string(), /*resume=*/true);
  EXPECT_FALSE(res2.error.empty());

  // Without --resume the same call overwrites instead.
  const auto fresh = stream_sweep_file(cells, other, file.string(), /*resume=*/false);
  EXPECT_TRUE(fresh.error.empty()) << fresh.error;
}

TEST(Shard, MergeRejectsGapsOverlapsAndMismatches) {
  const auto cells = shard_grid();
  const std::string a = stream_to_string(cells, {1, 3}, 1);
  const std::string b = stream_to_string(cells, {2, 3}, 1);
  const std::string c = stream_to_string(cells, {3, 3}, 1);
  std::string error;

  EXPECT_FALSE(merge_jsonl({a, c}, &error).has_value()) << "gap accepted";
  EXPECT_NE(error.find("tile"), std::string::npos) << error;

  EXPECT_FALSE(merge_jsonl({a, b, b, c}, &error).has_value()) << "overlap accepted";

  EXPECT_FALSE(merge_jsonl({}, &error).has_value()) << "empty merge accepted";

  // A shard of a different grid carries a different grid digest.
  auto edited = cells;
  edited[0].input_seed ^= 1;
  const std::string foreign = stream_to_string(edited, {2, 3}, 1);
  EXPECT_FALSE(merge_jsonl({a, foreign, c}, &error).has_value());
  EXPECT_NE(error.find("grid"), std::string::npos) << error;

  // A mismatched checkpoint period changes the byte stream; refuse it.
  const std::string coarse = stream_to_string(cells, {2, 3}, 1, /*checkpoint_every=*/64);
  EXPECT_FALSE(merge_jsonl({a, coarse, c}, &error).has_value());

  // An incomplete document (summary missing) is never mergeable.
  const std::string torn = b.substr(0, b.rfind("{\"type\": \"summary\""));
  EXPECT_FALSE(merge_jsonl({a, torn, c}, &error).has_value());
  EXPECT_NE(error.find("incomplete"), std::string::npos) << error;

  // A body that skips cell 50 and repeats cell 51 keeps its line count but
  // not its sequence: every line's index is checked.
  const auto cell_line = [&b](std::size_t cell) {
    const auto at = b.find("{\"type\": \"cell\", \"cell\": " + std::to_string(cell) + ", ");
    return b.substr(at, b.find('\n', at) + 1 - at);
  };
  std::string repeated = b;
  repeated.replace(repeated.find(cell_line(50)), cell_line(50).size(), cell_line(51));
  EXPECT_FALSE(merge_jsonl({a, repeated, c}, &error).has_value()) << "skip-and-repeat accepted";
  EXPECT_NE(error.find("cell 50"), std::string::npos) << error;

  // The summary must be the one its cell lines imply.
  const std::string held = "\"all_properties_held\": true";
  std::string resummed = b;
  ASSERT_NE(resummed.rfind(held), std::string::npos);
  resummed.replace(resummed.rfind(held), held.size(), "\"all_properties_held\": false");
  EXPECT_FALSE(merge_jsonl({a, resummed, c}, &error).has_value()) << "false summary accepted";
  EXPECT_NE(error.find("summary"), std::string::npos) << error;

  // The untampered set still merges (the checks above were the culprits).
  EXPECT_TRUE(merge_jsonl({a, b, c}, &error).has_value()) << error;
}

// ------------------------------------------------- fault-injection shim
//
// Simulates a shard writer that dies at its Nth line write: `fail` ends
// the document right before the line, `short_write` lands half of it.
// Every such document must be rejected by merge_jsonl (a complete-set
// validation) and repaired by stream_sweep_file --resume (a convergence
// guarantee), never crash either.

[[nodiscard]] std::string faulty_doc(const std::string& pristine, std::size_t nth_line,
                                     bool short_write) {
  std::size_t pos = 0;
  for (std::size_t line = 0; line < nth_line; ++line) {
    const auto nl = pristine.find('\n', pos);
    if (nl == std::string::npos) return pristine;  // past the end: no fault
    pos = nl + 1;
  }
  const auto nl = pristine.find('\n', pos);
  const std::size_t line_len = (nl == std::string::npos ? pristine.size() : nl) - pos;
  return pristine.substr(0, short_write ? pos + line_len / 2 : pos);
}

TEST(Shard, MergeRejectsEveryFaultInjectedDocument) {
  const auto cells = shard_grid();
  const std::string a = stream_to_string(cells, {1, 2}, 1);
  const std::string b = stream_to_string(cells, {2, 2}, 1);
  const std::size_t lines = static_cast<std::size_t>(std::count(b.begin(), b.end(), '\n'));
  ASSERT_GT(lines, 4U);

  std::string error;
  for (const std::size_t nth : {std::size_t{0}, std::size_t{1}, lines / 2, lines - 1}) {
    for (const bool short_write : {false, true}) {
      const std::string faulty = faulty_doc(b, nth, short_write);
      ASSERT_LT(faulty.size(), b.size());
      error.clear();
      EXPECT_FALSE(merge_jsonl({a, faulty}, &error).has_value())
          << "accepted a document cut at line " << nth << (short_write ? " (short write)" : "");
      EXPECT_FALSE(error.empty());
    }
  }
  // A fault past the document's end is no fault: the set still merges.
  EXPECT_TRUE(merge_jsonl({a, faulty_doc(b, lines + 1, false)}, &error).has_value()) << error;
}

TEST(Shard, ResumeRepairsEveryFaultInjectedFile) {
  const auto cells = shard_grid();
  const auto dir = scratch_dir("faulty_resume");
  const fs::path file = dir / "shard.jsonl";

  StreamOptions opts;
  opts.shard = {1, 2};
  opts.checkpoint_every = 5;
  OracleCache cache;
  opts.sweep.oracle = &cache;
  ASSERT_TRUE(stream_sweep_file(cells, opts, file.string(), false).error.empty());
  const std::string pristine = read_file(file);
  const std::size_t lines =
      static_cast<std::size_t>(std::count(pristine.begin(), pristine.end(), '\n'));

  for (const std::size_t nth : {std::size_t{0}, std::size_t{2}, lines / 2, lines - 1}) {
    for (const bool short_write : {false, true}) {
      {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        const std::string faulty = faulty_doc(pristine, nth, short_write);
        out.write(faulty.data(), static_cast<std::streamsize>(faulty.size()));
      }
      OracleCache resume_cache;
      StreamOptions resume_opts = opts;
      resume_opts.sweep.oracle = &resume_cache;
      const auto res = stream_sweep_file(cells, resume_opts, file.string(), /*resume=*/true);
      ASSERT_TRUE(res.error.empty())
          << "line " << nth << (short_write ? " short" : " fail") << ": " << res.error;
      EXPECT_EQ(read_file(file), pristine)
          << "resume diverged after fault at line " << nth;
    }
  }
}

TEST(Shard, StreamFileReportsUnusablePathsAsErrors) {
  const auto cells = shard_grid();
  const auto dir = scratch_dir("bad_paths");
  StreamOptions opts;
  opts.shard = {1, 2};
  OracleCache cache;
  opts.sweep.oracle = &cache;

  // The target is a directory: both fresh-write and resume must fail with
  // a structured error, not a crash or a silent no-op.
  const auto fresh = stream_sweep_file(cells, opts, dir.string(), /*resume=*/false);
  EXPECT_FALSE(fresh.error.empty());
  const auto resumed = stream_sweep_file(cells, opts, dir.string(), /*resume=*/true);
  EXPECT_FALSE(resumed.error.empty());
}

}  // namespace
}  // namespace bsm::core

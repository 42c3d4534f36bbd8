// The bsm_cli exit-code and flag contract, exercised against the real
// binary (CMake injects its path as BSM_CLI_PATH):
//   --help exits 0 and documents every subcommand;
//   an unknown flag on any subcommand path exits 2 and names the flag;
//   `explore` emits schema-shaped JSON and exits 0 on a satisfied search;
//   `fuzz` emits schema-shaped JSON, exits 1 on a violation, and its
//   counterexample replays through `fuzz --replay`;
//   unusable paths (a directory to merge, a file in the way of --corpus,
//   an unwritable --trace-out) exit 2 with a one-line error, never abort.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

namespace fs = std::filesystem;

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

[[nodiscard]] CliResult run_cli(const std::string& args) {
  const std::string cmd = std::string(BSM_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  CliResult result;
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(CliContract, HelpExitsZeroAndDocumentsEverySubcommand) {
  const auto result = run_cli("--help");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* word : {"run", "sweep", "merge", "explore", "fuzz", "bench", "--replay",
                           "--max-depth", "--max-execs", "--shard", "--resume", "--trace",
                           "--gst", "--gst-seed", "--max-rounds", "--trace-out", "--metrics",
                           "--progress[=SECS]"}) {
    EXPECT_NE(result.output.find(word), std::string::npos) << "help must mention " << word;
  }
}

TEST(CliContract, SubcommandHelpExitsZero) {
  for (const char* sub : {"run", "sweep", "merge", "explore", "fuzz", "bench"}) {
    const auto result = run_cli(std::string(sub) + " --help");
    EXPECT_EQ(result.exit_code, 0) << sub;
  }
}

TEST(CliContract, UnknownFlagsExitTwoAndNameTheFlag) {
  // Every subcommand path must reject an unknown flag with exit 2 and an
  // error that names the offending flag.
  const std::pair<const char*, const char*> cases[] = {
      {"run --bogus-flag", "--bogus-flag"},
      {"--bogus-flag", "--bogus-flag"},
      {"sweep --not-a-flag", "--not-a-flag"},
      {"explore --wat", "--wat"},
      {"fuzz --wat", "--wat"},
      {"fuzz --corpse dir", "--corpse"},
      {"bench --nope", "--nope"},
      {"merge --frob", "--frob"},
  };
  for (const auto& [args, flag] : cases) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args;
    EXPECT_NE(result.output.find(flag), std::string::npos)
        << "'" << args << "' must name the offending flag; got: " << result.output;
  }
}

TEST(CliContract, BadValuesExitTwo) {
  for (const char* args :
       {"explore --k zilch", "explore --battery nuclear", "explore --ops blackhole",
        "explore --replay not-a-trace", "sweep --sched warp", "sweep --sched-seeds 0",
        "sweep --topology moebius", "fuzz --k zilch", "fuzz --battery nuclear",
        "fuzz --ops blackhole", "fuzz --replay not-a-trace", "fuzz --topology moebius",
        "sweep --shard 0/4", "sweep --shard 5/4", "sweep --shard five",
        "sweep --checkpoint-every 0", "run --trace not-a-trace", "run --gst zilch",
        "run --max-rounds 2000000", "sweep --sched gst --gst 0,65", "sweep --max-rounds junk",
        "explore --max-rounds junk", "fuzz --max-rounds junk", "sweep --progress=0",
        "sweep --progress=soon", "fuzz --progress=", "sweep --metrics=yes"}) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args;
  }
}

TEST(CliContract, RunTraceAndGstAreMutuallyExclusive) {
  const auto result = run_cli("run --k 2 --tl 1 --tr 0 --trace \"stall@0:0>0*2\" --gst 1");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("mutually exclusive"), std::string::npos) << result.output;
}

TEST(CliContract, RunUnderGstReportsLiveness) {
  const auto result = run_cli("run --k 2 --tl 1 --tr 0 --gst 3");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("Liveness:"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("terminated=1"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("round_limit_hit=0"), std::string::npos) << result.output;
}

TEST(CliContract, NeverDeliverScheduleIsStructuredAtEveryEntryPoint) {
  // A stall wall that would starve the engine forever must come back as a
  // round_limit_hit verdict — exit 1, no hang — through every entry point.
  const std::string wall = "\"stall@0:0>0*100000\"";

  const auto run = run_cli("run --k 2 --tl 1 --tr 0 --trace " + wall + " --max-rounds 20");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("round_limit_hit=1"), std::string::npos) << run.output;

  const auto explore =
      run_cli("explore --k 2 --tl 1 --tr 0 --replay " + wall + " --max-rounds 20");
  EXPECT_EQ(explore.exit_code, 1) << explore.output;
  EXPECT_NE(explore.output.find("\"round_limit_hit\": true"), std::string::npos)
      << explore.output;
  EXPECT_NE(explore.output.find("\"terminated\": false"), std::string::npos) << explore.output;

  const auto fuzz = run_cli("fuzz --k 2 --tl 1 --tr 0 --replay " + wall + " --max-rounds 20");
  EXPECT_EQ(fuzz.exit_code, 1) << fuzz.output;
  EXPECT_NE(fuzz.output.find("\"round_limit_hit\": true"), std::string::npos) << fuzz.output;
}

TEST(CliContract, SweepGstAxisEmitsLivenessFields) {
  const auto result = run_cli(
      "sweep --k 2 --tl 0,1 --tr 0 --battery silent --sched gst --gst 0,2 --sched-seeds 2");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  for (const char* field : {"\"sched\": \"gst\"", "\"gst\": 2", "\"terminated\": true",
                            "\"rounds_to_termination\"", "\"round_limit_hit\": false"}) {
    EXPECT_NE(result.output.find(field), std::string::npos)
        << "gst sweep JSON must contain " << field;
  }
}

TEST(CliContract, MissingValueExitsTwo) {
  for (const char* args : {"explore --k", "sweep --battery", "run --seed", "fuzz --max-execs",
                           "fuzz --corpus", "sweep --out", "sweep --shard", "merge --out"}) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args;
  }
}

TEST(CliContract, ExploreEmitsJsonAndExitsZeroWhenSatisfied) {
  const auto result =
      run_cli("explore --k 2 --tl 1 --tr 0 --max-depth 1 --max-schedules 64 --threads 2");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  for (const char* field : {"\"scenario\"", "\"schedules\"", "\"explored\"", "\"pruned\"",
                            "\"violations\"", "\"all_satisfied\": true", "\"counterexample\""}) {
    EXPECT_NE(result.output.find(field), std::string::npos)
        << "explore JSON must contain " << field;
  }
}

TEST(CliContract, ExploreExitsOneOnViolationAndReplayReproducesIt) {
  const auto search = run_cli("explore --k 2 --tl 0 --tr 0 --include-honest --max-depth 1");
  EXPECT_EQ(search.exit_code, 1) << search.output;
  const auto start = search.output.find("\"trace\": \"");
  ASSERT_NE(start, std::string::npos) << search.output;
  const auto from = start + std::string("\"trace\": \"").size();
  const auto end = search.output.find('"', from);
  const std::string trace = search.output.substr(from, end - from);
  ASSERT_FALSE(trace.empty());

  const auto replay = run_cli("explore --k 2 --tl 0 --tr 0 --replay \"" + trace + "\"");
  EXPECT_EQ(replay.exit_code, 1) << replay.output;
  EXPECT_NE(replay.output.find("\"all_properties\": false"), std::string::npos) << replay.output;
}

TEST(CliContract, FuzzEmitsJsonAndExitsZeroWhenSatisfied) {
  // k=2/1/1 under silent is exhaustively clean beyond the envelope, so a
  // small budget runs dry without a violation.
  const auto result =
      run_cli("fuzz --k 2 --tl 1 --tr 1 --include-honest --max-execs 96 --threads 2");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  for (const char* field :
       {"\"scenario\"", "\"options\"", "\"fuzz\"", "\"execs\"", "\"corpus_size\"",
        "\"corpus_loaded\"", "\"corpus_saved\"", "\"coverage\"", "\"interesting\"",
        "\"violations\"", "\"all_satisfied\": true", "\"counterexample\": null"}) {
    EXPECT_NE(result.output.find(field), std::string::npos) << "fuzz JSON must contain " << field;
  }
}

TEST(CliContract, FuzzExitsOneOnViolationAndReplayReproducesIt) {
  // The engineered deep scenario: the minimal beyond-envelope violation
  // under liars needs 3 ops (see tests/fuzz_test.cpp).
  const auto search = run_cli(
      "fuzz --k 2 --tl 1 --tr 0 --battery liars --include-honest --max-delay 1 "
      "--max-execs 4096");
  EXPECT_EQ(search.exit_code, 1) << search.output;
  const auto start = search.output.find("\"trace\": \"");
  ASSERT_NE(start, std::string::npos) << search.output;
  const auto from = start + std::string("\"trace\": \"").size();
  const auto end = search.output.find('"', from);
  const std::string trace = search.output.substr(from, end - from);
  ASSERT_FALSE(trace.empty());

  const auto replay =
      run_cli("fuzz --k 2 --tl 1 --tr 0 --battery liars --replay \"" + trace + "\"");
  EXPECT_EQ(replay.exit_code, 1) << replay.output;
  EXPECT_NE(replay.output.find("\"all_properties\": false"), std::string::npos) << replay.output;
}

TEST(CliContract, FuzzSameSeedSameJsonAcrossThreadCounts) {
  const std::string flags =
      "fuzz --k 2 --tl 1 --tr 0 --battery liars --include-honest --max-delay 1 "
      "--max-execs 256 --fuzz-seed 9";
  const auto one = run_cli(flags + " --threads 1");
  const auto four = run_cli(flags + " --threads 4");
  EXPECT_EQ(one.exit_code, four.exit_code);
  EXPECT_EQ(one.output, four.output) << "fuzz reports must be thread-count independent";
}

TEST(CliContract, FuzzRejectsUnsolvableSettings) {
  const auto result = run_cli("fuzz --k 2 --tl 2 --tr 2 --no-auth");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unsolvable"), std::string::npos) << result.output;
}

TEST(CliContract, ExploreRejectsUnsolvableSettings) {
  const auto result = run_cli("explore --k 2 --tl 2 --tr 2 --no-auth");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unsolvable"), std::string::npos) << result.output;
}

TEST(CliContract, SweepShardAndResumeRequireOut) {
  for (const char* args : {"sweep --shard 1/2", "sweep --resume"}) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args;
    EXPECT_NE(result.output.find("--out"), std::string::npos)
        << "'" << args << "' must point at --out; got: " << result.output;
  }
}

TEST(CliContract, MergeWithNoInputsExitsTwo) {
  const auto result = run_cli("merge");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(CliContract, UnusablePathsExitTwoWithAOneLineError) {
  // A directory to merge, and a file in the way of --corpus (checked before
  // the campaign runs), must be structured errors, never an abort.
  const fs::path dir = fs::temp_directory_path() / "bsm_cli_contract_paths";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string file = (dir / "file").string();
  std::ofstream(file) << "not a directory\n";
  const std::string fuzz = "fuzz --k 2 --tl 1 --tr 0 --max-execs 8 --corpus ";
  const std::pair<std::string, std::string> cases[] = {
      {"merge " + dir.string(), "merge: cannot read " + dir.string() + " (not a regular file)\n"},
      {fuzz + file, "fuzz: cannot create --corpus directory: " + file + "\n"},
      {fuzz + file + "/nested", "fuzz: cannot create --corpus directory: " + file + "/nested\n"},
  };
  for (const auto& [args, error] : cases) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
    EXPECT_EQ(result.output, error) << args;
  }
  fs::remove_all(dir);
}

TEST(CliContract, ShardedSweepMergesByteIdenticalAndResumes) {
  // End-to-end through the real binary: a 2-way shard split of a small
  // grid, merged, must byte-match the 1/1 file; a truncated shard rerun
  // with --resume must converge to the same bytes.
  const fs::path dir = fs::temp_directory_path() / "bsm_cli_contract_shard";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string grid =
      "sweep --topology fully --auth on --k 2 --tl 0,1,2 --tr 0,1 --seeds 2 "
      "--battery silent --checkpoint-every 2 ";
  const std::string single_path = (dir / "single.jsonl").string();
  const std::string s1_path = (dir / "s1.jsonl").string();
  const std::string s2_path = (dir / "s2.jsonl").string();

  EXPECT_EQ(run_cli(grid + "--out " + single_path).exit_code, 0);
  EXPECT_EQ(run_cli(grid + "--out " + s1_path + " --shard 1/2 --threads 2").exit_code, 0);
  EXPECT_EQ(run_cli(grid + "--out " + s2_path + " --shard 2/2 --threads 3").exit_code, 0);

  const std::string single = read_file(single_path);
  ASSERT_FALSE(single.empty());

  const auto merged = run_cli("merge " + s2_path + " " + s1_path);
  EXPECT_EQ(merged.exit_code, 0);
  EXPECT_EQ(merged.output, single) << "merged shards diverged from the 1/1 stream";

  // Kill shard 1 mid-file and resume it; its bytes must converge.
  const std::string s1 = read_file(s1_path);
  ASSERT_GT(s1.size(), 40U);
  fs::resize_file(s1_path, s1.size() / 2);
  const auto resumed = run_cli(grid + "--out " + s1_path + " --shard 1/2 --resume");
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("\"resumed\": "), std::string::npos) << resumed.output;
  EXPECT_EQ(read_file(s1_path), s1);

  // A resume against a different grid/shard must be refused.
  const auto mismatch = run_cli(grid + "--out " + s1_path + " --shard 2/2 --resume");
  EXPECT_EQ(mismatch.exit_code, 2);
  fs::remove_all(dir);
}

TEST(CliContract, TraceOutUnwritablePathExitsTwo) {
  for (const char* args :
       {"run --k 2 --tl 0 --tr 0 --trace-out /nonexistent-dir/t.json",
        "sweep --k 2 --trace-out /nonexistent-dir/t.json",
        "explore --k 2 --tl 1 --tr 0 --trace-out /nonexistent-dir/t.json",
        "fuzz --k 2 --tl 1 --tr 0 --max-execs 8 --trace-out /nonexistent-dir/t.json"}) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
    EXPECT_NE(result.output.find("cannot write --trace-out file"), std::string::npos)
        << args << "\n" << result.output;
  }
}

TEST(CliContract, RecorderOnOutputBytesAreIdenticalOutsideMetrics) {
  // The obs headline contract: with the recorder fully enabled, JSONL
  // streams are byte-identical to recorder-off runs at every thread
  // count, and the summary/inline reports differ only by the single
  // `metrics` line. Report-level identity is pinned where the schedule
  // shape itself is deterministic (serial, and static multi-thread —
  // work-stealing's `steals` count is load-dependent with or without the
  // recorder).
  const fs::path dir = fs::temp_directory_path() / "bsm_cli_contract_obs";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string grid =
      "sweep --topology fully --auth on --k 2 --tl 0,1,2 --tr 0,1 --seeds 2 "
      "--battery silent,liars --checkpoint-every 4 ";
  const std::string trace_path = (dir / "trace.json").string();

  const auto strip_metrics = [](const std::string& report) {
    std::string out;
    std::size_t pos = 0;
    while (pos < report.size()) {
      std::size_t eol = report.find('\n', pos);
      if (eol == std::string::npos) eol = report.size() - 1;
      const std::string line = report.substr(pos, eol - pos + 1);
      if (line.rfind("  \"metrics\": ", 0) != 0) out += line;
      pos = eol + 1;
    }
    return out;
  };

  // Report byte-identity at two thread counts with deterministic shapes.
  for (const char* threads : {"--threads 1", "--threads 3 --schedule static"}) {
    const auto plain = run_cli(grid + threads);
    const auto observed = run_cli(grid + threads + " --metrics --trace-out " + trace_path);
    EXPECT_EQ(plain.exit_code, observed.exit_code) << threads;
    EXPECT_NE(observed.output.find("\n  \"metrics\": {\"version\": 2, "), std::string::npos)
        << threads << "\n" << observed.output.substr(0, 400);
    EXPECT_EQ(strip_metrics(observed.output), plain.output)
        << threads << ": recorder-on report must be byte-identical outside metrics";
  }

  // JSONL byte-identity under work-stealing at two further thread counts.
  const std::string plain_jsonl = (dir / "plain.jsonl").string();
  EXPECT_EQ(run_cli(grid + "--threads 2 --out " + plain_jsonl).exit_code, 0);
  for (const char* threads : {"--threads 3", "--threads 4"}) {
    const std::string obs_jsonl = (dir / "obs.jsonl").string();
    fs::remove(obs_jsonl);
    const auto observed = run_cli(grid + threads + " --out " + obs_jsonl +
                                  " --metrics --progress=1 --trace-out " + trace_path);
    EXPECT_EQ(observed.exit_code, 0) << threads << "\n" << observed.output;
    EXPECT_EQ(read_file(obs_jsonl), read_file(plain_jsonl))
        << threads << ": recorder-on JSONL must be byte-identical to recorder-off";
  }

  // The trace written above is valid Chrome trace-event JSON covering the
  // engine, scheduler, oracle, and shard layers, with worker tids labeled.
  const std::string trace = read_file(trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.rfind("{\"traceEvents\": [", 0), 0U);
  for (const char* needle :
       {"\"ph\": \"M\"", "\"ph\": \"X\"", "\"ph\": \"C\"", "engine/assemble", "engine/deliver",
        "engine/on_round", "sweep/chunk", "sweep/cell", "shard/emit", "shard/checkpoint",
        "shard/flush", "cells_done", "\"name\": \"worker-1\""}) {
    EXPECT_NE(trace.find(needle), std::string::npos) << "trace must contain " << needle;
  }
  fs::remove_all(dir);
}

TEST(CliContract, ProgressHeartbeatGoesToStderrOnly) {
  // --progress always prints at least the final summary line, on stderr.
  const auto result = run_cli("sweep --k 2 --seeds 1 --battery silent --progress");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("progress: "), std::string::npos) << result.output;
  // stdout alone (stderr dropped) must carry no progress lines.
  const std::string cmd = std::string(BSM_CLI_PATH) +
                          " sweep --k 2 --seeds 1 --battery silent --progress 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) out.append(buffer.data(), n);
  pclose(pipe);
  EXPECT_EQ(out.find("progress: "), std::string::npos) << out;
}

TEST(CliContract, FuzzMetricsBlockSitsAboveAllSatisfied) {
  const auto result = run_cli(
      "fuzz --k 2 --tl 1 --tr 1 --include-honest --max-execs 64 --threads 2 --metrics");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const auto metrics_at = result.output.find("\n  \"metrics\": {\"version\": 2, ");
  const auto satisfied_at = result.output.find("\"all_satisfied\": true");
  ASSERT_NE(metrics_at, std::string::npos) << result.output;
  ASSERT_NE(satisfied_at, std::string::npos) << result.output;
  EXPECT_LT(metrics_at, satisfied_at);
  EXPECT_NE(result.output.find("\"evals\": 64"), std::string::npos) << result.output;
}

}  // namespace

// The bsm_cli exit-code and flag contract, exercised against the real
// binary (CMake injects its path as BSM_CLI_PATH):
//   --help exits 0 and documents every subcommand;
//   an unknown flag on any subcommand path exits 2 and names the flag;
//   `explore` emits schema-shaped JSON and exits 0 on a satisfied search;
//   `fuzz` emits schema-shaped JSON, exits 1 on a violation, and its
//   counterexample replays through `fuzz --replay`;
//   a replay reports the same rounds_to_termination watermark as `run`;
//   a --replay or --trace op naming a party id >= n exits 2 as a bad trace;
//   unusable paths (a directory to merge or to bench --json into, a file
//   in the way of --corpus, an unwritable --trace-out) exit 2 with a
//   one-line error, never abort;
//   a write that fails midway (past a file-size limit, or into /dev/full)
//   exits 2 and names its file or stdout, and a failed corpus trace is
//   removed rather than left behind empty.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

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

[[nodiscard]] CliResult run_shell(const std::string& cmd) {
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

[[nodiscard]] CliResult run_cli(const std::string& args) {
  return run_shell(std::string(BSM_CLI_PATH) + " " + args + " 2>&1");
}

TEST(CliContract, HelpExitsZeroAndDocumentsEverySubcommand) {
  const auto result = run_cli("--help");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* word : {"run", "sweep", "merge", "explore", "fuzz", "bench", "--replay",
                           "--max-depth", "--max-execs", "--shard", "--resume", "--trace",
                           "--max-rounds", "--trace-out", "--metrics", "--progress[=SECS]"}) {
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
        "sweep --checkpoint-every 0", "run --trace not-a-trace", "run --max-rounds 2000000",
        "sweep --max-rounds junk", "explore --max-rounds junk", "fuzz --max-rounds junk",
        "sweep --progress=0", "sweep --progress=soon", "fuzz --progress=", "sweep --metrics=yes",
        // Out-of-range scenario axes: no side may be empty, and no
        // corruption budget may exceed its side (for sweep: the smallest
        // side in the grid).
        "run --k 0", "explore --k 0", "fuzz --k 2 --tl 3", "run --k 2 --tl 0 --tr 3",
        "sweep --k 2,0", "sweep --k 2 --tl 3", "fuzz --batch 0",
        // A run hosts n^2 broadcast instances: k is capped at 64 everywhere
        // (sweep's list already was), not only where memory runs out.
        "run --k 65", "explore --k 65", "fuzz --k 65",
        // An empty list names no cell (or silently means the default):
        // every list flag refuses it.
        "sweep --k ,", "sweep --tl ,", "sweep --tr ,", "sweep --topology ,", "sweep --battery ,",
        "explore --ops ,", "fuzz --ops ,"}) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args;
  }
}

TEST(CliContract, ScheduleWithOutOfRangePartyExitsTwo) {
  // An id the scenario does not have is a bad trace, not a run: the
  // scripted policy's fault envelope would size a bitset for it (about
  // 500 MB for this one) before any round ran.
  const std::string trace = "\"drop@0:4000000000>1\"";
  for (const char* sub : {"explore", "fuzz"}) {
    const auto result = run_cli(std::string(sub) + " --k 2 --replay " + trace);
    EXPECT_EQ(result.exit_code, 2) << sub << ": " << result.output;
    EXPECT_NE(result.output.find("bad --replay trace"), std::string::npos)
        << sub << ": " << result.output;
  }
  const auto edge = run_cli("explore --k 2 --replay \"drop@0:1>4\"");  // n = 4: ids 0..3
  EXPECT_EQ(edge.exit_code, 2) << edge.output;
  const auto run = run_cli("run --k 2 --trace " + trace);
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("bad --trace"), std::string::npos) << run.output;
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

  // sweep takes no trace: a cap below the protocol deadline is its wall.
  const auto sweep = run_cli(
      "sweep --k 2 --tl 0 --tr 0 --seeds 1 --battery silent --topology fully --auth on "
      "--max-rounds 1");
  EXPECT_EQ(sweep.exit_code, 1) << sweep.output;
  const std::string liveness =
      "\"terminated\": false, \"rounds_to_termination\": 0, \"round_limit_hit\": true}";
  EXPECT_NE(sweep.output.find(liveness), std::string::npos) << sweep.output;
}

/// The number after `key` in `output`, or -1 when `key` is absent.
[[nodiscard]] long number_after(const std::string& output, const std::string& key) {
  const auto at = output.find(key);
  return at == std::string::npos ? -1 : std::stol(output.substr(at + key.size()));
}

TEST(CliContract, RunTranscriptPerAdversaryKind) {
  // `run` materializes its cell through the scenario layer; these pin the
  // transcript cost of every --adversary kind, schedule and topology.
  const std::pair<const char*, const char*> cases[] = {
      {"run --adversary silent", "6 rounds, 392 messages, 28112 bytes"},
      {"run --adversary liar --adversary split", "6 rounds, 560 messages, 41712 bytes"},
      {"run --adversary crash --adversary liar", "6 rounds, 512 messages, 36864 bytes"},
      {"run --topology bipartite --k 3 --tl 1 --tr 0 --adversary split --no-auth",
       "17 rounds, 2129 messages, 100786 bytes"},
      {"run --topology one-sided --k 4 --tl 0 --tr 2 --adversary silent --adversary silent "
       "--trace 'drop@1:4>0'",
       "9 rounds, 648 messages, 58896 bytes"},
      // The scenario layer's noise burst (3 messages per round).
      {"run --adversary noise --adversary noise", "6 rounds, 324 messages, 21665 bytes"},
  };
  for (const auto& [args, cost] : cases) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 0) << args << "\n" << result.output;
    EXPECT_NE(result.output.find(std::string("Cost:      ") + cost + "\n"), std::string::npos)
        << args << "\n" << result.output;
  }
}

TEST(CliContract, ReplayReportsTheSameTerminationWatermarkAsRun) {
  // rounds_to_termination is the engine round at which every honest party
  // had first decided. A replay steps the whole horizon, post-deadline
  // slack included, and must still report that watermark, as `run` does.
  const std::string setting = " --k 2 --tl 1 --tr 0 ";
  const std::pair<std::string, long> cases[] = {{"stall@0:0>0*2", 5}, {"stall@2:0>0*1", 4}};
  for (const auto& [trace, expected] : cases) {
    const auto run = run_cli("run" + setting + "--adversary silent --trace \"" + trace + "\"");
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_NE(run.output.find("Liveness:   terminated=1 "), std::string::npos) << run.output;
    EXPECT_EQ(number_after(run.output, "rounds_to_termination="), expected) << run.output;
    EXPECT_NE(run.output.find(" round_limit_hit=0\n"), std::string::npos) << run.output;
    for (const char* sub : {"explore", "fuzz"}) {
      const auto replay = run_cli(std::string(sub) + setting + "--battery silent --replay \"" +
                                  trace + "\"");
      EXPECT_EQ(replay.exit_code, 0) << replay.output;
      EXPECT_EQ(number_after(replay.output, "\"rounds_to_termination\": "), expected)
          << sub << " --replay " << trace << "\n" << replay.output;
    }
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
  // A directory to merge or to bench --json into, and a file in the way of
  // --corpus (both checked before any case or campaign runs), must be
  // structured errors, never an abort.
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
      {"bench --json " + dir.string(), "bench: cannot write " + dir.string() + "\n"},
  };
  for (const auto& [args, error] : cases) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
    EXPECT_EQ(result.output, error) << args;
  }
  fs::remove_all(dir);
}

TEST(CliContract, ControlCharactersInPathsAreEscapedInReports) {
  // A tab in --corpus and --out must reach the report as \u0009: JSON
  // forbids raw control characters inside strings.
  const fs::path dir = fs::temp_directory_path() / "bsm_cli_contract_escape";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string corpus = (dir / "corp\tus").string();
  const std::string out = (dir / "o\tut.jsonl").string();
  const std::string escaped_dir = (dir / "").string();
  const std::pair<std::string, std::string> cases[] = {
      {"fuzz --k 2 --tl 1 --tr 0 --max-execs 8 --corpus '" + corpus + "'",
       "\"corpus_dir\": \"" + escaped_dir + "corp\\u0009us\""},
      {"sweep --k 2 --tl 0 --tr 0 --seeds 1 --battery silent --out '" + out + "'",
       "\"out\": \"" + escaped_dir + "o\\u0009ut.jsonl\""},
  };
  for (const auto& [args, member] : cases) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 0) << args << "\n" << result.output;
    EXPECT_NE(result.output.find(member), std::string::npos) << args << "\n" << result.output;
    for (const char c : result.output) {
      ASSERT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
          << args << ": raw control character " << static_cast<int>(c) << " in the report";
    }
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

TEST(CliContract, FailedWritesExitTwoAndNameTheTarget) {
  // Under a one-block file-size limit with SIGXFSZ ignored, the write that
  // crosses the limit fails with EFBIG instead of killing the process;
  // /dev/full fails every write with ENOSPC, as a full disk does. No
  // writer may then exit 0 with a truncated report.
  const fs::path dir = fs::temp_directory_path() / "bsm_cli_contract_efbig";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto path = [&dir](const char* name) { return (dir / name).string(); };
  const std::string shard = path("s.jsonl");
  const std::string sweep =
      "sweep --k 2 --tl 0,1 --tr 0,1 --seeds 2 --battery silent --topology fully --auth on --out ";
  ASSERT_EQ(run_cli(sweep + shard).exit_code, 0);
  ASSERT_GT(fs::file_size(shard), 2048U);
  const std::string bench =
      "bench --repeats 1 --filter '^gale_shapley/smoke|^sched/smoke|^sweep/smoke'";
  const std::string cli = std::string(BSM_CLI_PATH) + " ";
  const std::string limited = "trap '' XFSZ; ulimit -f 1; ";
  const std::string run = "run --k 3 --tl 1 --tr 1";
  const std::string trace = path("t.json");
  struct Case {
    std::string limit;  ///< shell prefix, empty when the target fails by itself
    std::string args;
    std::string stdout_to;  ///< empty: stdout stays on the captured pipe
    std::string target;     ///< what the error must name
  };
  std::vector<Case> cases = {
      {limited, "merge " + shard + " --out " + path("m.jsonl"), "", path("m.jsonl")},
      {limited, "merge " + shard, path("m.jsonl"), "stdout"},
      {limited, bench + " --json " + path("b.json"), "", path("b.json")},
      {limited, bench, path("b.json"), "stdout"},
      {limited, "sweep --k 2 --seeds 2 --threads 2 --trace-out " + trace, "", trace},
      {limited, run + " --trace-out " + trace, "", trace},
  };
  if (fs::exists("/dev/full")) {
    cases.push_back({"", "merge " + shard + " --out /dev/full", "", "/dev/full"});
    cases.push_back({"", bench + " --json /dev/full", "", "/dev/full"});
    cases.push_back({"", run + " --trace-out /dev/full", "", "/dev/full"});
    cases.push_back({"", run, "/dev/full", "stdout"});
  }
  for (const auto& c : cases) {
    // stderr joins the pipe before stdout moves to the file.
    const std::string redirect = c.stdout_to.empty() ? "" : " >" + c.stdout_to;
    const auto result = run_shell(c.limit + cli + c.args + " 2>&1" + redirect);
    EXPECT_EQ(result.exit_code, 2) << c.args << "\n" << result.output;
    EXPECT_NE(result.output.find(": write error on " + c.target + "\n"), std::string::npos)
        << c.args << "\n" << result.output.substr(0, 400);
  }

  // A corpus trace is far smaller than the one block `-f 1` allows, so the
  // save fails under `-f 0`. A file whose write failed must not stay behind:
  // it would count as saved and keep its trace out of every later campaign.
  const std::string fuzz = "fuzz --k 2 --tl 1 --tr 0 --max-execs 64 --corpus ";
  const std::string corpus = path("corpus");
  const auto failed = run_shell("trap '' XFSZ; ulimit -f 0; " + cli + fuzz + corpus + " 2>&1");
  EXPECT_EQ(failed.exit_code, 2) << failed.output;
  const auto error = failed.output.find("fuzz: write error on " + corpus + "/");
  ASSERT_NE(error, std::string::npos) << failed.output;
  EXPECT_NE(failed.output.find(".trace\n", error), std::string::npos) << failed.output;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    EXPECT_GT(entry.file_size(), 0U) << "empty trace left behind: " << entry.path();
  }
  const auto saved = [](const CliResult& result) {
    const auto at = result.output.find("\"corpus_saved\": ");
    return at == std::string::npos ? 0UL : std::stoul(result.output.substr(at + 16));
  };
  const auto rerun = run_cli(fuzz + corpus);
  const auto fresh = run_cli(fuzz + path("fresh"));
  EXPECT_EQ(rerun.exit_code, 0) << rerun.output;
  EXPECT_GT(saved(fresh), 0UL);
  EXPECT_EQ(saved(rerun), saved(fresh));
  fs::remove_all(dir);
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

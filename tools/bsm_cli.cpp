// bsm_cli — run any byzantine-stable-matching scenario from the command
// line and inspect the outcome, sweep whole scenario grids in parallel
// (monolithic or sharded/streamed/resumable), merge shard outputs, run
// systematic or fuzzing schedule searches, or run the benchmark suite.
//
// Subcommands (see `bsm_cli --help` for every flag):
//   bsm_cli [run] [flags]    one scenario, human-readable outcome table
//   bsm_cli sweep [flags]    a cartesian scenario grid via run_sweep();
//                            one inline JSON document on stdout, or — with
//                            --out — a streamed JSONL shard document plus
//                            a JSON summary report (core/shard.hpp)
//   bsm_cli merge [flags]    merge + validate shard JSONL files into the
//                            canonical single-process document
//   bsm_cli explore [flags]  systematic delivery-schedule search (sched::explore)
//   bsm_cli fuzz [flags]     coverage-guided schedule fuzzing (sched::Fuzzer)
//   bsm_cli bench [flags]    the full benchmark suite via the shared harness
//
// Every subcommand parses through the declarative flag tables in
// common/cli_options.hpp (run, explore and fuzz share one table of
// setting rows; explore and fuzz also share their search rows), `run`
// builds its cell as a core::ScenarioSpec like every other subcommand,
// and every machine-readable report leads with the shared JSON envelope
// (core/envelope.hpp). Exits 0 when all four bSM properties held; 2 when
// the setting is unsolvable per the paper (or on a usage error); 1 on a
// property violation (which inside the solvable region would be a library
// bug — please report it).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cases/cases.hpp"
#include "common/cli_options.hpp"
#include "common/codec.hpp"
#include "common/hash.hpp"
#include "common/table.hpp"
#include "core/bench.hpp"
#include "core/envelope.hpp"
#include "core/oracle.hpp"
#include "core/runner.hpp"
#include "core/shard.hpp"
#include "core/sweep.hpp"
#include "obs/progress.hpp"
#include "obs/recorder.hpp"
#include "sched/explorer.hpp"
#include "sched/fuzz.hpp"
#include "sched/policy.hpp"
#include "sched/trace.hpp"

namespace {

using namespace bsm;

// -------------------------------------------------------- shared parsers

[[nodiscard]] std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

[[nodiscard]] std::optional<net::TopologyKind> parse_topology(const std::string& name) {
  if (name == "fully") return net::TopologyKind::FullyConnected;
  if (name == "one-sided") return net::TopologyKind::OneSided;
  if (name == "bipartite") return net::TopologyKind::Bipartite;
  return std::nullopt;
}

[[nodiscard]] std::optional<core::Battery> parse_battery(const std::string& name) {
  if (name == "silent") return core::Battery::Silent;
  if (name == "noise") return core::Battery::Noise;
  if (name == "liars") return core::Battery::Liars;
  if (name == "adaptive") return core::Battery::AdaptiveCrash;
  if (name == "omission") return core::Battery::Omission;
  return std::nullopt;
}

[[nodiscard]] const char* battery_name(core::Battery battery) {
  switch (battery) {
    case core::Battery::Silent:
      return "silent";
    case core::Battery::Noise:
      return "noise";
    case core::Battery::Liars:
      return "liars";
    case core::Battery::AdaptiveCrash:
      return "adaptive";
    case core::Battery::Omission:
      return "omission";
  }
  return "?";
}

/// Row factory for a bounded integer flag writing through `assign`.
template <typename Assign>
[[nodiscard]] cli::FlagSpec bounded_flag(std::string name, std::string value_name,
                                         std::string help, std::uint64_t lo, std::uint64_t hi,
                                         Assign assign) {
  return cli::value_flag(
      std::move(name), std::move(value_name), std::move(help),
      [lo, hi, assign](const std::string& v) -> std::optional<std::string> {
        std::uint64_t n = 0;
        if (auto reason = cli::parse_bounded(v, lo, hi, n)) return reason;
        assign(n);
        return std::nullopt;
      });
}

// ---------------------------------------------------------- setting flags

/// The setting rows `run`, `explore` and `fuzz` share: one fixed cell
/// (topology, PKI, k, tL, tR) and its workload seed. Help shows the
/// defaults bound in `cfg` and `seed`.
void add_setting_flags(cli::Subcommand& sub, core::BsmConfig& cfg, std::uint64_t& seed) {
  sub.flags.push_back(cli::value_flag(
      "--topology", "KIND", "fully|one-sided|bipartite topology (default: fully)",
      [&cfg](const std::string& v) -> std::optional<std::string> {
        const auto parsed = parse_topology(v);
        if (!parsed) return "expected fully|one-sided|bipartite";
        cfg.topology = *parsed;
        return std::nullopt;
      }));
  sub.flags.push_back(
      cli::flag("--auth", "PKI available (default)", [&cfg] { cfg.authenticated = true; }));
  sub.flags.push_back(
      cli::flag("--no-auth", "no PKI", [&cfg] { cfg.authenticated = false; }));
  const auto count_row = [&sub](std::string name, std::string help, std::uint64_t lo,
                                std::uint32_t& field) {
    sub.flags.push_back(bounded_flag(
        std::move(name), "N", std::move(help) + " (default: " + std::to_string(field) + ")", lo,
        core::kMaxK, [&field](std::uint64_t n) { field = static_cast<std::uint32_t>(n); }));
  };
  count_row("--k", "parties per side", 1, cfg.k);
  count_row("--tl", "corruption budget within L", 0, cfg.tl);
  count_row("--tr", "corruption budget within R", 0, cfg.tr);
  sub.flags.push_back(bounded_flag("--seed", "S",
                                   "workload seed (default: " + std::to_string(seed) + ")", 0,
                                   1'000'000, [&seed](std::uint64_t n) { seed = n; }));
}

/// A corruption budget larger than its side names no setting (Topology and
/// solvable() reject it): a usage error, exit 2. `k` is the smallest side
/// size and `tl`/`tr` the largest budgets the command will run.
[[nodiscard]] bool budgets_fit(const char* sub, std::uint32_t k, std::uint32_t tl,
                               std::uint32_t tr) {
  if (tl <= k && tr <= k) return true;
  std::cerr << sub << ": --tl and --tr must be at most --k (try --help)\n";
  return false;
}

// ---------------------------------------------------- observability flags

/// The obs-layer surface shared across subcommands: --trace-out (Chrome
/// trace-event JSON), --metrics (report block), --progress (stderr
/// heartbeat). All optional; when none is given the recorder is never
/// created and output stays byte-identical to older builds.
struct ObsCli {
  std::string trace_path;
  bool metrics = false;
  std::uint64_t progress_secs = 0;  ///< 0 = off

  [[nodiscard]] bool enabled() const {
    return !trace_path.empty() || metrics || progress_secs > 0;
  }
};

void add_obs_flags(cli::Subcommand& sub, ObsCli& o, bool with_metrics, bool with_progress) {
  sub.flags.push_back(cli::value_flag(
      "--trace-out", "FILE", "write a Chrome trace-event JSON trace (open in Perfetto)",
      [&o](const std::string& v) -> std::optional<std::string> {
        if (v.empty()) return "expected a file path";
        o.trace_path = v;
        return std::nullopt;
      }));
  if (with_metrics) {
    sub.flags.push_back(cli::flag(
        "--metrics",
        "append a versioned metrics block (counter totals +\n"
        "                        latency percentiles) to the JSON report",
        [&o] { o.metrics = true; }));
  }
  if (with_progress) {
    sub.flags.push_back(cli::optional_value_flag(
        "--progress", "SECS", "heartbeat progress lines on stderr every SECS seconds (default: 2)",
        [&o] { o.progress_secs = 2; },
        [&o](const std::string& v) { return cli::parse_bounded(v, 1, 86400, o.progress_secs); }));
  }
}

/// One subcommand's recorder lifetime: validate --trace-out up front,
/// install the recorder, run the heartbeat, export on finish(). Every
/// method is a no-op when no obs flag was given.
class ObsSession {
 public:
  ObsSession() = default;
  ~ObsSession() { finish(); }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// False = `error()` explains the unwritable --trace-out path (exit 2).
  [[nodiscard]] bool begin(const ObsCli& o, std::uint64_t total_work, obs::Counter done,
                           const char* unit) {
    if (!o.enabled()) return true;
    if (!o.trace_path.empty()) {
      trace_path_ = o.trace_path;
      trace_out_.open(trace_path_, std::ios::binary | std::ios::trunc);
      if (!trace_out_) {
        error_ = "cannot write --trace-out file: " + trace_path_;
        return false;
      }
    }
    emit_metrics_ = o.metrics;
    obs::Recorder::Options ropts;
    ropts.capture_spans = !o.trace_path.empty();
    recorder_ = std::make_unique<obs::Recorder>(ropts);
    recorder_->set_total_work(total_work);
    obs::install(recorder_.get());
    if (o.progress_secs > 0) {
      progress_.start(*recorder_, {o.progress_secs, done, unit}, std::cerr);
    }
    return true;
  }

  /// Stop the heartbeat, uninstall the recorder, write the trace file.
  /// Idempotent; runs from the destructor on early-exit paths too.
  void finish() {
    if (recorder_ == nullptr || finished_) return;
    finished_ = true;
    progress_.stop();
    obs::install(nullptr);
    if (trace_out_.is_open()) {
      trace_out_ << recorder_->chrome_trace_json();
      error_ = core::close_report(trace_out_, trace_path_);
    }
  }

  /// The command's exit code: `code`, or 2 after "<sub>: write error on
  /// FILE" when the trace file could not be written. Finishes first.
  [[nodiscard]] int exit_code(const char* sub, int code) {
    finish();
    if (error_.empty()) return code;
    std::cerr << sub << ": " << error_ << "\n";
    return 2;
  }

  /// The report's `"metrics": {...},` member, empty without --metrics.
  /// Finishes the session first so the numbers cover the whole run.
  [[nodiscard]] std::string metrics_member() {
    finish();
    if (recorder_ == nullptr || !emit_metrics_) return "";
    return "\"metrics\": " + recorder_->metrics_json() + ",\n  ";
  }

  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  std::unique_ptr<obs::Recorder> recorder_;
  obs::ProgressReporter progress_;
  std::string trace_path_;
  std::ofstream trace_out_;
  std::string error_;
  bool emit_metrics_ = false;
  bool finished_ = false;
};

// ------------------------------------------------------------- sweep mode

/// Everything the sweep flag table binds to.
struct SweepCli {
  core::SweepGrid grid;
  std::uint64_t num_seeds = 2;
  std::uint64_t sched_seeds = 1;
  sched::PolicyDesc sched_base;
  core::SweepOptions opts;

  // Streaming surface (core/shard.hpp); active iff --out is given.
  std::string out_path;
  core::ShardSpec shard;
  bool shard_given = false;
  bool resume = false;
  std::uint64_t checkpoint_every = 64;
  bool checkpoint_given = false;

  ObsCli obs;
};

[[nodiscard]] cli::Subcommand sweep_subcommand(SweepCli& o) {
  cli::Subcommand sub;
  sub.name = "sweep";
  sub.summary = "run a scenario grid in parallel, emit JSON (or JSONL shards) on stdout";
  sub.intro =
      "enumerates the cartesian grid over every axis below and runs\n"
      "each cell on a work-stealing thread pool. Default output: one inline JSON\n"
      "document on stdout with per-cell outcomes, aggregate totals, the scheduler\n"
      "shape, and the oracle-cache counters. With --out FILE.jsonl the results\n"
      "stream to FILE as JSONL — one line per cell in deterministic grid order\n"
      "with periodic checkpoint records — and stdout gets a JSON summary report;\n"
      "--shard i/N runs one contiguous shard of the grid, and --resume continues\n"
      "a killed run from its last complete line. Merged shard outputs are\n"
      "byte-identical to the single-process sweep (see `bsm_cli merge`).\n"
      "Exit 0 iff every solvable cell held all four properties";
  sub.flags = {
      cli::value_flag("--topology", "LIST",
                      "comma list of fully,one-sided,bipartite (default: all)",
                      [&o](const std::string& v) -> std::optional<std::string> {
                        std::vector<net::TopologyKind> kinds;
                        for (const auto& t : split_csv(v)) {
                          const auto parsed = parse_topology(t);
                          if (!parsed) return "unknown topology: " + t;
                          kinds.push_back(*parsed);
                        }
                        if (kinds.empty()) return "expected at least one topology";
                        o.grid.topologies = std::move(kinds);
                        return std::nullopt;
                      }),
      cli::value_flag("--auth", "both|on|off", "authentication axis (default: both)",
                      [&o](const std::string& v) -> std::optional<std::string> {
                        if (v == "both") {
                          o.grid.auths = {false, true};
                        } else if (v == "on") {
                          o.grid.auths = {true};
                        } else if (v == "off") {
                          o.grid.auths = {false};
                        } else {
                          return "expected both|on|off";
                        }
                        return std::nullopt;
                      }),
  };
  const auto u32_list = [](const std::string& v, std::uint64_t lo,
                           std::vector<std::uint32_t>& out) -> std::optional<std::string> {
    std::vector<std::uint32_t> values;
    for (const auto& item : split_csv(v)) {
      const auto parsed = parse_u64(item);
      if (!parsed || *parsed < lo || *parsed > core::kMaxK) {
        return "expected comma list of " + std::to_string(lo) + ".." +
               std::to_string(core::kMaxK);
      }
      values.push_back(static_cast<std::uint32_t>(*parsed));
    }
    if (values.empty()) return "expected at least one value";
    out = std::move(values);
    return std::nullopt;
  };
  sub.flags.push_back(cli::value_flag(
      "--k", "LIST", "comma list of market sizes (default: 3)",
      [&o, u32_list](const std::string& v) { return u32_list(v, 1, o.grid.ks); }));
  sub.flags.push_back(cli::value_flag(
      "--tl", "LIST", "comma list of L budgets (default: 0..k)",
      [&o, u32_list](const std::string& v) { return u32_list(v, 0, o.grid.tls); }));
  sub.flags.push_back(cli::value_flag(
      "--tr", "LIST", "comma list of R budgets (default: 0..k)",
      [&o, u32_list](const std::string& v) { return u32_list(v, 0, o.grid.trs); }));
  sub.flags.push_back(bounded_flag("--seeds", "N", "workload seeds 1..N (default: 2)", 1, 10000,
                                   [&o](std::uint64_t n) { o.num_seeds = n; }));
  sub.flags.push_back(cli::value_flag(
      "--battery", "LIST",
      "comma list of silent,noise,liars,adaptive,omission (default: all but omission)",
      [&o](const std::string& v) -> std::optional<std::string> {
        std::vector<core::Battery> batteries;
        for (const auto& b : split_csv(v)) {
          const auto battery = parse_battery(b);
          if (!battery) return "unknown battery: " + b;
          batteries.push_back(*battery);
        }
        if (batteries.empty()) return "expected at least one battery";
        o.grid.batteries = std::move(batteries);
        return std::nullopt;
      }));
  sub.flags.push_back(cli::value_flag(
      "--sched", "KIND",
      "delivery schedule per cell: sync,delay,omit (default: sync;\n"
      "                        delay/omit perturb only corrupt-adjacent channels)",
      [&o](const std::string& v) -> std::optional<std::string> {
        if (v == "sync") {
          o.sched_base.kind = sched::PolicyDesc::Kind::Synchronous;
        } else if (v == "delay") {
          o.sched_base.kind = sched::PolicyDesc::Kind::RandomDelay;
        } else if (v == "omit") {
          o.sched_base.kind = sched::PolicyDesc::Kind::TargetedOmission;
        } else {
          return "expected sync|delay|omit";
        }
        return std::nullopt;
      }));
  sub.flags.push_back(bounded_flag(
      "--sched-seeds", "N", "fan each setting out over N schedule seeds (default: 1)", 1, 10000,
      [&o](std::uint64_t n) { o.sched_seeds = n; }));
  sub.flags.push_back(bounded_flag(
      "--max-rounds", "N",
      "engine-round guard per cell, 0 = deadline + stall budget (default: 0)", 0, 1'000'000,
      [&o](std::uint64_t n) { o.grid.max_rounds = static_cast<Round>(n); }));
  sub.flags.push_back(bounded_flag(
      "--threads", "N", "worker threads, 0 = hardware (default: 0)", 0, 1024,
      [&o](std::uint64_t n) { o.opts.threads = static_cast<unsigned>(n); }));
  sub.flags.push_back(cli::value_flag(
      "--schedule", "KIND", "cell scheduler: stealing|static (default: stealing)",
      [&o](const std::string& v) -> std::optional<std::string> {
        if (v == "stealing") {
          o.opts.schedule = core::Schedule::WorkStealing;
        } else if (v == "static") {
          o.opts.schedule = core::Schedule::Static;
        } else {
          return "expected stealing|static";
        }
        return std::nullopt;
      }));
  sub.flags.push_back(cli::value_flag(
      "--out", "FILE", "stream results to FILE as JSONL (summary report on stdout)",
      [&o](const std::string& v) -> std::optional<std::string> {
        if (v.empty()) return "expected a file path";
        o.out_path = v;
        return std::nullopt;
      }));
  sub.flags.push_back(cli::value_flag(
      "--shard", "I/N", "run shard I of N (contiguous grid slice; requires --out)",
      [&o](const std::string& v) -> std::optional<std::string> {
        const auto parsed = core::ShardSpec::parse(v);
        if (!parsed) return "expected I/N with 1 <= I <= N";
        o.shard = *parsed;
        o.shard_given = true;
        return std::nullopt;
      }));
  sub.flags.push_back(cli::flag(
      "--resume", "continue an interrupted --out run from its last complete line",
      [&o] { o.resume = true; }));
  sub.flags.push_back(bounded_flag(
      "--checkpoint-every", "N", "JSONL checkpoint period in cells (default: 64; requires --out)",
      1, 1'000'000, [&o](std::uint64_t n) {
        o.checkpoint_every = n;
        o.checkpoint_given = true;
      }));
  add_obs_flags(sub, o.obs, /*with_metrics=*/true, /*with_progress=*/true);
  return sub;
}

int run_sweep_command(int argc, char** argv) {
  SweepCli o;
  o.grid.topologies = {net::TopologyKind::FullyConnected, net::TopologyKind::OneSided,
                       net::TopologyKind::Bipartite};
  o.grid.auths = {false, true};
  o.grid.ks = {3};
  o.grid.batteries = {core::Battery::Silent, core::Battery::Noise, core::Battery::Liars,
                      core::Battery::AdaptiveCrash};

  if (const auto code = cli::parse_flags(sweep_subcommand(o), argc, argv, 2, std::cerr)) {
    return *code;
  }
  if (o.out_path.empty() && (o.shard_given || o.resume || o.checkpoint_given)) {
    std::cerr << "sweep: --shard/--resume/--checkpoint-every require --out FILE (try --help)\n";
    return 2;
  }
  if (!o.grid.ks.empty()) {
    const auto largest = [](const std::vector<std::uint32_t>& v) {
      return v.empty() ? 0U : *std::max_element(v.begin(), v.end());
    };
    if (!budgets_fit("sweep", *std::min_element(o.grid.ks.begin(), o.grid.ks.end()),
                     largest(o.grid.tls), largest(o.grid.trs))) {
      return 2;
    }
  }

  o.grid.seeds.clear();
  for (std::uint64_t s = 1; s <= o.num_seeds; ++s) o.grid.seeds.push_back(s);
  o.grid.scheds = core::schedule_axis(o.sched_base, o.sched_seeds);
  const auto cells = o.grid.cells();

  ObsSession obs_session;
  {
    const auto [obs_begin, obs_end] = o.shard.range(cells.size());
    const std::uint64_t total = o.out_path.empty() ? cells.size() : obs_end - obs_begin;
    if (!obs_session.begin(o.obs, total, obs::Counter::CellsDone, "cells")) {
      std::cerr << "sweep: " << obs_session.error() << "\n";
      return 2;
    }
  }

  if (!o.out_path.empty()) {
    core::StreamOptions sopts;
    sopts.shard = o.shard;
    sopts.checkpoint_every = o.checkpoint_every;
    sopts.sweep = o.opts;
    const auto res = core::stream_sweep_file(cells, sopts, o.out_path, o.resume);
    if (!res.error.empty()) {
      std::cerr << "sweep: " << res.error << "\n";
      return 2;
    }
    const auto& st = res.stats;
    const auto [begin, end] = o.shard.range(cells.size());
    const std::string metrics_part = obs_session.metrics_member();
    std::ostringstream hit_rate;
    hit_rate << st.sweep.oracle.hit_rate();
    std::cout << "{\n  " << core::envelope_json("sweep", o.opts.threads)
              << ",\n  \"grid_digest\": \"" << to_hex(core::grid_digest(cells))
              << "\", \"total_cells\": " << cells.size() << ", \"shard\": \"" << o.shard.str()
              << "\", \"begin\": " << begin << ", \"end\": " << end << ",\n  \"out\": \""
              << core::json_escape(o.out_path)
              << "\", \"resume\": " << (o.resume ? "true" : "false")
              << ", \"resumed_complete\": " << (res.resumed_complete ? "true" : "false")
              << ",\n  \"cells\": " << st.cells << ", \"ran\": " << st.ran
              << ", \"emitted\": " << st.emitted << ", \"resumed\": " << st.resumed
              << ",\n  \"scheduler\": {\"threads\": " << st.sweep.threads
              << ", \"chunks\": " << st.sweep.chunks << ", \"steals\": " << st.sweep.steals
              << "},\n  \"oracle_cache\": {\"hits\": " << st.sweep.oracle.hits
              << ", \"misses\": " << st.sweep.oracle.misses
              << ", \"inserts\": " << st.sweep.oracle.inserts << ", \"hit_rate\": "
              << hit_rate.str() << "},\n  " << metrics_part << "\"all_properties_held\": "
              << (st.all_ok ? "true" : "false") << "\n}\n";
    return obs_session.exit_code("sweep", st.all_ok ? 0 : 1);
  }

  // Inline document (the historical sweep output; CI smoke parses it).
  core::SweepStats stats;
  const auto results = core::run_sweep(cells, o.opts, &stats);
  const std::string metrics_part = obs_session.metrics_member();

  bool all_ok = true;
  std::size_t ran = 0;
  std::cout << "{\n  " << core::envelope_json("sweep", stats.threads) << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& cell = results[i];
    if (cell.outcome.has_value()) {
      ++ran;
      all_ok &= cell.outcome->report.all();
    }
    std::cout << "    {" << core::cell_json_fields(cell) << "}"
              << (i + 1 < results.size() ? "," : "") << "\n";
  }
  std::ostringstream hit_rate;
  hit_rate << stats.oracle.hit_rate();
  std::cout << "  ],\n  \"total_cells\": " << results.size() << ",\n  \"ran\": " << ran
            << ",\n  \"scheduler\": {\"threads\": " << stats.threads
            << ", \"chunks\": " << stats.chunks << ", \"steals\": " << stats.steals
            << "},\n  \"oracle_cache\": {\"hits\": " << stats.oracle.hits
            << ", \"misses\": " << stats.oracle.misses << ", \"inserts\": " << stats.oracle.inserts
            << ", \"hit_rate\": " << hit_rate.str() << "},\n  " << metrics_part
            << "\"all_properties_held\": " << (all_ok ? "true" : "false") << "\n}\n";
  return obs_session.exit_code("sweep", all_ok ? 0 : 1);
}

// ------------------------------------------------------------- merge mode

/// The merge flag table, shared by the merge command and the top help.
[[nodiscard]] cli::Subcommand merge_subcommand(std::string& out_path,
                                               std::vector<std::string>& inputs) {
  cli::Subcommand sub;
  sub.name = "merge";
  sub.summary = "merge + validate sweep shard JSONL files into the 1/1 document";
  sub.intro =
      "concatenates complete `sweep --out` shard files (any order) into\n"
      "the canonical single-process JSONL document, validating that they come\n"
      "from one grid and one build and tile it exactly. The merged output is\n"
      "byte-identical to a `sweep --out` run without --shard. Exit 0 on a\n"
      "valid merge, 2 on any mismatch, gap, overlap, or incomplete shard";
  sub.positional_name = "FILE.jsonl";
  sub.positional_help = "shard documents produced by `sweep --out` (one per shard)";
  sub.positional = [&inputs](const std::string& path) { inputs.push_back(path); };
  sub.flags = {
      cli::value_flag("--out", "PATH|-", "write the merged JSONL to PATH (default: stdout)",
                      [&out_path](const std::string& v) -> std::optional<std::string> {
                        if (v.empty()) return "expected a file path or -";
                        out_path = v;
                        return std::nullopt;
                      }),
  };
  return sub;
}

int run_merge_command(int argc, char** argv) {
  std::string out_path = "-";
  std::vector<std::string> inputs;
  if (const auto code =
          cli::parse_flags(merge_subcommand(out_path, inputs), argc, argv, 2, std::cerr)) {
    return *code;
  }
  if (inputs.empty()) {
    std::cerr << "merge: no shard files given (try --help)\n";
    return 2;
  }

  std::vector<std::string> docs;
  docs.reserve(inputs.size());
  for (const auto& path : inputs) {
    // libstdc++ throws from the read on EISDIR: rule out directories (and
    // other non-regular files) before touching the stream.
    std::error_code ec;
    if (std::filesystem::exists(path, ec) && !std::filesystem::is_regular_file(path, ec)) {
      std::cerr << "merge: cannot read " << path << " (not a regular file)\n";
      return 2;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "merge: cannot read " << path << "\n";
      return 2;
    }
    docs.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::string error;
  const auto merged = core::merge_jsonl(docs, &error);
  if (!merged) {
    std::cerr << "merge: " << error << "\n";
    return 2;
  }
  if (out_path == "-") {
    std::cout << *merged;
  } else {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "merge: cannot write " << out_path << "\n";
      return 2;
    }
    out << *merged;
    if (const std::string error = core::close_report(out, out_path); !error.empty()) {
      std::cerr << "merge: " << error << "\n";
      return 2;
    }
  }
  return 0;
}

// --------------------------------------------- schedule search (explore, fuzz)

/// What explore and fuzz share: one scenario cell and its battery, the
/// replay trace and its engine-round guard, and the obs flags.
struct SearchCli {
  core::BsmConfig cfg{net::TopologyKind::FullyConnected, true, 2, 1, 0};
  std::uint64_t seed = 1;
  core::Battery battery = core::Battery::Silent;
  Round max_rounds = 0;
  std::optional<std::string> replay;
  ObsCli obs;
};

/// The rows explore and fuzz share, around the search's own: the setting
/// rows and --battery, then `before`, then the perturbation rows, then
/// `after`, then the replay rows (the split keeps explore's help in its
/// historical order). Help shows the defaults bound in `opts`
/// (sched::ExplorerOptions or sched::FuzzerOptions).
template <typename Options>
void add_search_flags(cli::Subcommand& sub, SearchCli& o, Options& opts,
                      std::vector<cli::FlagSpec> before, std::vector<cli::FlagSpec> after) {
  add_setting_flags(sub, o.cfg, o.seed);
  sub.flags.push_back(cli::value_flag(
      "--battery", "KIND", "silent,noise,liars,adaptive,omission (default: silent)",
      [&o](const std::string& v) -> std::optional<std::string> {
        const auto parsed = parse_battery(v);
        if (!parsed) return "expected silent|noise|liars|adaptive|omission";
        o.battery = *parsed;
        return std::nullopt;
      }));
  for (auto& row : before) sub.flags.push_back(std::move(row));
  sub.flags.push_back(bounded_flag(
      "--max-delay", "N",
      "delay ops slip 1..N rounds (default: " + std::to_string(opts.max_delay) + ")", 0,
      1'000'000, [&opts](std::uint64_t n) { opts.max_delay = static_cast<Round>(n); }));
  sub.flags.push_back(bounded_flag(
      "--horizon", "N", "rounds to simulate, 0 = protocol deadline (default: 0)", 0, 1'000'000,
      [&opts](std::uint64_t n) { opts.horizon = static_cast<Round>(n); }));
  sub.flags.push_back(cli::value_flag(
      "--ops", "LIST", "comma list of drop,delay,reorder (default: drop,delay)",
      [&opts](const std::string& v) -> std::optional<std::string> {
        bool drop = false;
        bool delay = false;
        bool reorder = false;
        for (const auto& op : split_csv(v)) {
          if (op == "drop") {
            drop = true;
          } else if (op == "delay") {
            delay = true;
          } else if (op == "reorder") {
            reorder = true;
          } else {
            return "unknown op: " + op + ", expected drop|delay|reorder";
          }
        }
        if (!drop && !delay && !reorder) return "expected at least one of drop|delay|reorder";
        opts.allow_drop = drop;
        opts.allow_delay = delay;
        opts.allow_reorder = reorder;
        return std::nullopt;
      }));
  sub.flags.push_back(cli::flag(
      "--include-honest",
      "also perturb honest-honest channels (beyond the\n"
      "                        fault envelope; violations become expected)",
      [&opts] { opts.corrupt_adjacent_only = false; }));
  for (auto& row : after) sub.flags.push_back(std::move(row));
  sub.flags.push_back(bounded_flag(
      "--max-rounds", "N",
      "replay engine-round guard, 0 = horizon + stall budget (default: 0)", 0, 1'000'000,
      [&o](std::uint64_t n) { o.max_rounds = static_cast<Round>(n); }));
  sub.flags.push_back(bounded_flag(
      "--threads", "N", "per-wave fan-out, 0 = hardware (default: 0)", 0, 1024,
      [&opts](std::uint64_t n) { opts.threads = static_cast<unsigned>(n); }));
  sub.flags.push_back(cli::value_flag(
      "--replay", "TRACE",
      "skip the search: replay one serialized schedule\n"
      "                        trace and report its outcome",
      [&o](const std::string& v) -> std::optional<std::string> {
        o.replay = v;
        return std::nullopt;
      }));
}

/// The setup explore and fuzz share: refuse a setting outside the paper's
/// solvable region, then build the searched cell from the seed and the
/// battery. nullopt = exit 2 (the reason is on stderr).
[[nodiscard]] std::optional<core::ScenarioSpec> search_scenario(const char* sub,
                                                                const SearchCli& o) {
  if (!budgets_fit(sub, o.cfg.k, o.cfg.tl, o.cfg.tr)) return std::nullopt;
  if (!core::solvable(o.cfg)) {
    std::cerr << "unsolvable setting: " << core::solvability_reason(o.cfg) << "\n";
    return std::nullopt;
  }
  core::ScenarioSpec scenario;
  scenario.config = o.cfg;
  scenario.input_seed = o.seed;
  scenario.pki_seed = o.seed + 1;
  core::apply_battery(scenario, o.battery, o.seed);
  return scenario;
}

[[nodiscard]] std::string views_json(const std::vector<std::uint64_t>& views) {
  std::string out = "[";
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(views[i]);
  }
  return out + "]";
}

[[nodiscard]] std::string scenario_json(const SearchCli& o, const core::ScenarioSpec& scenario) {
  std::ostringstream out;
  out << "\"scenario\": {\"topology\": \"" << core::json_escape(net::to_string(o.cfg.topology))
      << "\", \"auth\": " << (o.cfg.authenticated ? "true" : "false") << ", \"k\": " << o.cfg.k
      << ", \"tl\": " << o.cfg.tl << ", \"tr\": " << o.cfg.tr << ", \"seed\": " << o.seed
      << ", \"battery\": \"" << battery_name(o.battery)
      << "\", \"adversaries\": " << scenario.adversaries.size() << "}";
  return out.str();
}

/// Parse a hand-supplied schedule (`run --trace`, `--replay`) for an
/// n-party scenario: nullopt on malformed text, and on an op naming a
/// party id >= n — the scenario has no such party, and the scripted
/// policy's fault envelope would refuse an id beyond the PartySet capacity
/// with an exception, where a bad trace should exit 2.
[[nodiscard]] std::optional<sched::ScheduleTrace> parse_trace(const std::string& text,
                                                              std::uint32_t n) {
  auto trace = sched::ScheduleTrace::parse(text);
  if (!trace) return std::nullopt;
  for (const sched::ScheduleOp& op : trace->ops) {
    if (op.from >= n || op.to >= n) return std::nullopt;
  }
  return trace;
}

/// Shared by `explore --replay` and `fuzz --replay`: run one serialized
/// trace under the scenario and print the replay JSON document. The
/// output depends only on (scenario, horizon, trace), so a
/// counterexample replays bit-for-bit from either subcommand.
int run_replay(core::ScenarioSpec scenario, Round horizon, Round max_rounds,
               const std::string& serialized) {
  const auto trace = parse_trace(serialized, scenario.config.n());
  if (!trace) {
    std::cerr << "bad --replay trace: " << serialized << "\n";
    return 2;
  }
  scenario.sched.kind = sched::PolicyDesc::Kind::Scripted;
  scenario.sched.trace = *trace;
  // Honor --horizon exactly like the search does (horizon 0 = the
  // protocol deadline), so a counterexample found under a truncated
  // horizon reproduces on replay. Stepping is run_bsm's: the same
  // first-all-decided rounds_to_termination watermark as `run`, and the
  // engine-round guard turns a trace that stalls the engine forever (or
  // past --max-rounds) into a round_limit_hit verdict instead of a hang.
  auto run = core::assemble_run(core::to_run_spec(scenario));
  const Round rounds = horizon == 0 ? run.rounds : horizon;
  const core::RunOutcome out = core::run_assembled(run, rounds, max_rounds);
  std::cout << "{\n  \"replay\": {\"trace\": \"" << core::json_escape(trace->serialize())
            << "\", \"ops\": " << trace->ops.size() << ", \"rounds\": " << out.rounds
            << ", \"messages\": " << out.traffic.messages
            << ", \"delivered\": " << out.traffic.delivered_messages
            << ", \"dropped\": " << out.traffic.dropped_messages
            << ", \"all_properties\": " << (out.report.all() ? "true" : "false")
            << ", \"terminated\": " << (out.terminated ? "true" : "false")
            << ", \"rounds_to_termination\": " << out.rounds_to_termination
            << ", \"round_limit_hit\": " << (out.round_limit_hit ? "true" : "false")
            << ",\n    \"views\": " << views_json(out.view_hashes) << "}\n}\n";
  return out.report.all() ? 0 : 1;
}

/// The tail of both search reports: the metrics member, the verdict and
/// the counterexample. Returns the exit code (0 = every searched
/// schedule satisfied all four properties, 1 = violation found).
int print_findings(const sched::SearchFindings& findings, const std::string& metrics_member) {
  std::cout << "  " << metrics_member << "\"all_satisfied\": "
            << (findings.all_satisfied() ? "true" : "false") << ",\n";
  if (findings.counterexample.has_value()) {
    std::cout << "  \"counterexample\": {\"trace\": \""
              << core::json_escape(findings.counterexample->serialize())
              << "\", \"ops\": " << findings.counterexample->ops.size()
              << ", \"shrink_runs\": " << findings.shrink_runs
              << ",\n    \"views\": " << views_json(findings.counterexample_views) << "}\n";
  } else {
    std::cout << "  \"counterexample\": null\n";
  }
  std::cout << "}\n";
  return findings.all_satisfied() ? 0 : 1;
}

// ----------------------------------------------------------- explore mode

struct ExploreCli : SearchCli {
  sched::ExplorerOptions opts;
};

[[nodiscard]] cli::Subcommand explore_subcommand(ExploreCli& o) {
  cli::Subcommand sub;
  sub.name = "explore";
  sub.summary = "systematic delivery-schedule search, emit JSON on stdout";
  sub.intro =
      "bounded iterative-deepening search over per-round delivery\n"
      "perturbations — drop/delay/reorder of channel-round groups — of one\n"
      "scenario, pruned by per-round view-hash state digests; prints one JSON\n"
      "document with schedules explored/pruned, violations, and a minimized\n"
      "counterexample trace when one exists; exit 0 = every explored schedule\n"
      "satisfied all four properties, 1 = violation found, 2 = usage error or\n"
      "unsolvable setting";
  add_search_flags(
      sub, o, o.opts,
      {bounded_flag("--max-depth", "N", "max perturbation ops per schedule (default: 2)", 0,
                    1'000'000,
                    [&o](std::uint64_t n) { o.opts.max_depth = static_cast<std::uint32_t>(n); })},
      {bounded_flag(
          "--max-schedules", "N", "cap on exploration runs (default: 4096)", 0, 1'000'000,
          [&o](std::uint64_t n) { o.opts.max_schedules = static_cast<std::uint32_t>(n); })});
  add_obs_flags(sub, o.obs, /*with_metrics=*/true, /*with_progress=*/false);
  return sub;
}

int run_explore_command(int argc, char** argv) {
  ExploreCli o;
  if (const auto code = cli::parse_flags(explore_subcommand(o), argc, argv, 2, std::cerr)) {
    return *code;
  }
  const auto scenario = search_scenario("explore", o);
  if (!scenario) return 2;

  ObsSession obs_session;
  if (!obs_session.begin(o.obs, 0, obs::Counter::Evals, "execs")) {
    std::cerr << "explore: " << obs_session.error() << "\n";
    return 2;
  }

  if (o.replay.has_value()) {
    // Replay output is contractually a pure function of (scenario, trace):
    // the trace file is still written, but no metrics block is added.
    return obs_session.exit_code("explore",
                                 run_replay(*scenario, o.opts.horizon, o.max_rounds, *o.replay));
  }

  const auto report = sched::explore(*scenario, o.opts);
  const std::string metrics_part = obs_session.metrics_member();

  std::cout << "{\n  " << core::envelope_json("explore", o.opts.threads) << ",\n  "
            << scenario_json(o, *scenario) << ",\n";
  std::cout << "  \"options\": {\"max_depth\": " << o.opts.max_depth
            << ", \"max_delay\": " << o.opts.max_delay << ", \"horizon\": " << o.opts.horizon
            << ", \"drop\": " << (o.opts.allow_drop ? "true" : "false")
            << ", \"delay\": " << (o.opts.allow_delay ? "true" : "false")
            << ", \"reorder\": " << (o.opts.allow_reorder ? "true" : "false")
            << ", \"corrupt_adjacent_only\": "
            << (o.opts.corrupt_adjacent_only ? "true" : "false")
            << ", \"max_schedules\": " << o.opts.max_schedules << "},\n";
  std::cout << "  \"schedules\": {\"explored\": " << report.explored
            << ", \"pruned\": " << report.pruned << ", \"violations\": " << report.violations
            << ", \"depth_reached\": " << report.depth_reached
            << ", \"truncated\": " << (report.truncated ? "true" : "false") << "},\n";
  return obs_session.exit_code("explore", print_findings(report, metrics_part));
}

// -------------------------------------------------------------- fuzz mode

struct FuzzCli : SearchCli {
  sched::FuzzerOptions opts;
};

[[nodiscard]] cli::Subcommand fuzz_subcommand(FuzzCli& o) {
  cli::Subcommand sub;
  sub.name = "fuzz";
  sub.summary = "coverage-guided schedule fuzzing, emit JSON on stdout";
  sub.intro =
      "coverage-guided greybox loop over the same schedule space as\n"
      "explore: a corpus of interesting traces — ones that reached a new\n"
      "per-round view-hash trail prefix — is mutated inside the fault envelope,\n"
      "parents picked by coverage energy; prints one JSON document with\n"
      "execs/corpus/coverage/violations and a 1-minimal counterexample trace\n"
      "when one exists; same seed = bit-identical report at any thread count;\n"
      "exit 0 = no violation found, 1 = violation found, 2 = usage error or\n"
      "unsolvable setting";
  add_search_flags(
      sub, o, o.opts,
      {bounded_flag("--fuzz-seed", "S", "mutation/selection rng seed (default: 1)", 0, 1'000'000,
                    [&o](std::uint64_t n) { o.opts.seed = n; }),
       bounded_flag("--max-execs", "N", "total simulation budget (default: 2048)", 0, 1'000'000,
                    [&o](std::uint64_t n) { o.opts.max_execs = static_cast<std::uint32_t>(n); }),
       bounded_flag("--batch", "N", "candidates per parallel wave (default: 32)", 1, 1'000'000,
                    [&o](std::uint64_t n) { o.opts.batch = static_cast<std::uint32_t>(n); }),
       bounded_flag("--max-ops", "N", "op cap per mutated trace (default: 8)", 0, 1'000'000,
                    [&o](std::uint64_t n) { o.opts.max_ops = static_cast<std::uint32_t>(n); })},
      {bounded_flag(
           "--omission-budget", "N", "max drops charged to one target (default: 4)", 0, 1'000'000,
           [&o](std::uint64_t n) { o.opts.omission_budget = static_cast<std::uint32_t>(n); }),
       cli::value_flag("--corpus", "DIR",
                       "load seed traces from DIR before fuzzing and\n"
                       "                        save the final corpus back (digest-keyed files)",
                       [&o](const std::string& v) -> std::optional<std::string> {
                         o.opts.corpus_dir = v;
                         return std::nullopt;
                       })});
  add_obs_flags(sub, o.obs, /*with_metrics=*/true, /*with_progress=*/true);
  return sub;
}

int run_fuzz_command(int argc, char** argv) {
  FuzzCli o;
  o.opts.allow_reorder = false;  // match explore's default op menu: drop,delay
  if (const auto code = cli::parse_flags(fuzz_subcommand(o), argc, argv, 2, std::cerr)) {
    return *code;
  }
  const auto scenario = search_scenario("fuzz", o);
  if (!scenario) return 2;

  if (!o.replay.has_value() && !o.opts.corpus_dir.empty()) {
    // The corpus is saved only after the whole campaign: refuse an
    // unusable directory now instead of losing the campaign's traces.
    std::error_code ec;
    std::filesystem::create_directories(o.opts.corpus_dir, ec);
    if (!std::filesystem::is_directory(o.opts.corpus_dir, ec)) {
      std::cerr << "fuzz: cannot create --corpus directory: " << o.opts.corpus_dir << "\n";
      return 2;
    }
  }

  ObsSession obs_session;
  if (!obs_session.begin(o.obs, o.replay.has_value() ? 0 : o.opts.max_execs, obs::Counter::Evals,
                         "execs")) {
    std::cerr << "fuzz: " << obs_session.error() << "\n";
    return 2;
  }

  if (o.replay.has_value()) {
    // Replay output is contractually a pure function of (scenario, trace):
    // the trace file is still written, but no metrics block is added.
    return obs_session.exit_code("fuzz",
                                 run_replay(*scenario, o.opts.horizon, o.max_rounds, *o.replay));
  }

  sched::Fuzzer fuzzer(*scenario, o.opts);
  const auto report = fuzzer.run();
  const std::string metrics_part = obs_session.metrics_member();

  // The fuzz envelope deliberately omits `threads`: the report is
  // contractually bit-identical across thread counts (the same exception
  // the JSONL header makes — see core/envelope.hpp).
  std::cout << "{\n  " << core::envelope_json("fuzz", 0, /*include_threads=*/false) << ",\n  "
            << scenario_json(o, *scenario) << ",\n";
  std::cout << "  \"options\": {\"fuzz_seed\": " << o.opts.seed
            << ", \"max_execs\": " << o.opts.max_execs << ", \"batch\": " << o.opts.batch
            << ", \"max_ops\": " << o.opts.max_ops << ", \"max_delay\": " << o.opts.max_delay
            << ", \"horizon\": " << o.opts.horizon
            << ", \"drop\": " << (o.opts.allow_drop ? "true" : "false")
            << ", \"delay\": " << (o.opts.allow_delay ? "true" : "false")
            << ", \"reorder\": " << (o.opts.allow_reorder ? "true" : "false")
            << ", \"omission_budget\": " << o.opts.omission_budget
            << ", \"corrupt_adjacent_only\": "
            << (o.opts.corrupt_adjacent_only ? "true" : "false") << ", \"corpus_dir\": \""
            << core::json_escape(o.opts.corpus_dir) << "\"},\n";
  std::cout << "  \"fuzz\": {\"execs\": " << report.execs
            << ", \"corpus_size\": " << report.corpus_size
            << ", \"corpus_loaded\": " << report.corpus_loaded
            << ", \"corpus_saved\": " << report.corpus_saved
            << ", \"coverage\": " << report.coverage << ", \"interesting\": " << report.interesting
            << ", \"violations\": " << report.violations << "},\n";
  const int code = obs_session.exit_code("fuzz", print_findings(report, metrics_part));
  if (report.corpus_error.empty()) return code;
  std::cerr << "fuzz: " << report.corpus_error << "\n";
  return 2;
}

// --------------------------------------------------------------- run mode

struct RunCli {
  core::BsmConfig cfg{net::TopologyKind::FullyConnected, true, 4, 1, 1};
  std::uint64_t seed = 1;
  std::vector<core::AdversaryDesc::Kind> adversaries;
  bool verbose = false;
  std::optional<std::string> trace;  ///< --trace: scripted delivery schedule
  Round max_rounds = 0;
  ObsCli obs;
};

[[nodiscard]] std::optional<core::AdversaryDesc::Kind> parse_adversary(const std::string& name) {
  using Kind = core::AdversaryDesc::Kind;
  if (name == "silent") return Kind::Silent;
  if (name == "noise") return Kind::Noise;
  if (name == "liar") return Kind::Liar;
  if (name == "split") return Kind::SplitBrainLiar;
  if (name == "crash") return Kind::Crash;
  return std::nullopt;
}

[[nodiscard]] cli::Subcommand run_subcommand(RunCli& o) {
  cli::Subcommand sub;
  sub.name = "run";
  sub.summary = "run one scenario, print the outcome table";
  sub.intro =
      "exit 0 = all four bSM properties held, 1 = violation,\n"
      "2 = unsolvable setting or usage error";
  add_setting_flags(sub, o.cfg, o.seed);
  sub.flags.push_back(cli::value_flag(
      "--adversary", "KIND", "add one corrupted party: silent|noise|liar|split|crash",
      [&o](const std::string& v) -> std::optional<std::string> {
        const auto kind = parse_adversary(v);
        if (!kind) return "expected silent|noise|liar|split|crash";
        o.adversaries.push_back(*kind);
        return std::nullopt;
      }));
  sub.flags.push_back(cli::value_flag(
      "--trace", "TRACE",
      "run under a scripted delivery schedule (serialized\n"
      "                        ScheduleTrace; stall@R:0>0*N ops stall the engine)",
      [&o](const std::string& v) -> std::optional<std::string> {
        if (v.empty()) return "expected a serialized schedule trace";
        o.trace = v;
        return std::nullopt;
      }));
  sub.flags.push_back(bounded_flag(
      "--max-rounds", "N",
      "engine-round guard, 0 = deadline + stall budget; a\n"
      "                        starved run reports round_limit_hit instead of hanging",
      0, 1'000'000, [&o](std::uint64_t n) { o.max_rounds = static_cast<Round>(n); }));
  sub.flags.push_back(
      cli::flag("--verbose", "print preference lists too", [&o] { o.verbose = true; }));
  add_obs_flags(sub, o.obs, /*with_metrics=*/false, /*with_progress=*/false);
  return sub;
}

int run_run_command(int argc, char** argv, int first) {
  RunCli opt;
  if (const auto code = cli::parse_flags(run_subcommand(opt), argc, argv, first, std::cerr)) {
    return *code;
  }
  if (!budgets_fit("run", opt.cfg.k, opt.cfg.tl, opt.cfg.tr)) return 2;
  ObsSession obs_session;
  if (!obs_session.begin(opt.obs, 0, obs::Counter::CellsDone, "cells")) {
    std::cerr << "run: " << obs_session.error() << "\n";
    return 2;
  }

  std::cout << "Setting:   " << opt.cfg.describe() << "\n";
  std::cout << "Verdict:   " << core::solvability_reason(opt.cfg) << "\n";
  if (!core::solvable(opt.cfg)) {
    std::cout << "This setting is IMPOSSIBLE per the paper; nothing to run.\n"
              << "(See `bsm_cli bench --filter '^attack_lemma'` for executable proofs.)\n";
    return 2;
  }

  core::ScenarioSpec scenario;
  scenario.config = opt.cfg;
  scenario.input_seed = opt.seed;
  scenario.pki_seed = opt.seed + 1;
  scenario.max_rounds = opt.max_rounds;

  // Assign adversaries: alternate sides while budget remains.
  std::uint32_t used_l = 0;
  std::uint32_t used_r = 0;
  for (std::size_t i = 0; i < opt.adversaries.size(); ++i) {
    core::AdversaryDesc desc;
    desc.kind = opt.adversaries[i];
    desc.seed = opt.seed + i;  // the noise stream
    if (used_l < opt.cfg.tl && (used_l <= used_r || used_r >= opt.cfg.tr)) {
      desc.id = used_l++;
    } else if (used_r < opt.cfg.tr) {
      desc.id = opt.cfg.k + used_r++;
    } else {
      std::cerr << "adversary #" << i + 1 << " exceeds the corruption budget; ignored\n";
      continue;
    }
    scenario.adversaries.push_back(desc);
  }

  if (opt.trace.has_value()) {
    const auto trace = parse_trace(*opt.trace, opt.cfg.n());
    if (!trace) {
      std::cerr << "bad --trace: " << *opt.trace << "\n";
      return 2;
    }
    scenario.sched.kind = sched::PolicyDesc::Kind::Scripted;
    scenario.sched.trace = *trace;
  }
  core::RunSpec spec = core::to_run_spec(scenario);

  if (opt.verbose) {
    std::cout << "\nPreference lists:\n";
    for (PartyId id = 0; id < opt.cfg.n(); ++id) {
      std::cout << "  P" << id << ": ";
      for (PartyId c : spec.inputs.list(id)) std::cout << "P" << c << " ";
      std::cout << "\n";
    }
  }

  const auto out = core::run_bsm(std::move(spec));

  std::cout << "\nProtocol:  " << out.spec.describe() << "\n";
  std::cout << "Cost:      " << out.rounds << " rounds, " << out.traffic.messages
            << " messages, " << out.traffic.bytes << " bytes\n\n";

  Table table({"party", "side", "status", "matched with"});
  for (PartyId id = 0; id < opt.cfg.n(); ++id) {
    std::string match = "-";
    if (!out.corrupt[id] && out.decisions[id].has_value()) {
      match = *out.decisions[id] == kNobody ? "nobody" : "P" + std::to_string(*out.decisions[id]);
    }
    table.add_row({"P" + std::to_string(id), id < opt.cfg.k ? "L" : "R",
                   out.corrupt[id] ? "byzantine" : "honest", match});
  }
  std::cout << table.render() << "\n";
  std::cout << "Properties: termination=" << out.report.termination
            << " symmetry=" << out.report.symmetry << " stability=" << out.report.stability
            << " non-competition=" << out.report.non_competition << "\n";
  std::cout << "Liveness:   terminated=" << out.terminated
            << " rounds_to_termination=" << out.rounds_to_termination
            << " round_limit_hit=" << out.round_limit_hit << "\n";
  for (const auto& v : out.report.violations) std::cout << "  violation: " << v << "\n";
  return obs_session.exit_code("run", out.report.all() ? 0 : 1);
}

void print_top_help() {
  RunCli run_state;
  SweepCli sweep_state;
  std::string merge_out;
  std::vector<std::string> merge_inputs;
  ExploreCli explore_state;
  FuzzCli fuzz_state;
  core::BenchCliState bench_state;

  const auto run_sub = run_subcommand(run_state);
  const auto sweep_sub = sweep_subcommand(sweep_state);
  const auto merge_sub = merge_subcommand(merge_out, merge_inputs);
  const auto explore_sub = explore_subcommand(explore_state);
  const auto fuzz_sub = fuzz_subcommand(fuzz_state);
  const auto bench_sub = core::bench_subcommand(bench_state);

  std::cout << cli::render_help(
      "bsm_cli", "byzantine stable matching toolkit",
      {&run_sub, &sweep_sub, &merge_sub, &explore_sub, &fuzz_sub, &bench_sub});
}

}  // namespace

int main(int argc, char** argv) {
  std::string sub = argc > 1 ? argv[1] : "";
  int code = 0;
  if (sub == "--help") {
    sub = "bsm_cli";
    print_top_help();
  } else if (sub == "sweep") {
    code = run_sweep_command(argc, argv);
  } else if (sub == "merge") {
    code = run_merge_command(argc, argv);
  } else if (sub == "explore") {
    code = run_explore_command(argc, argv);
  } else if (sub == "fuzz") {
    code = run_fuzz_command(argc, argv);
  } else if (sub == "bench") {
    benchcases::register_all();
    code = core::bench_main(argc - 1, argv + 1);
  } else {
    // `run` is an explicit alias for the default mode.
    code = run_run_command(argc, argv, sub == "run" ? 2 : 1);
    sub = "run";
  }
  // Every report on stdout (the JSON documents, run's table, bench's
  // summary lines) is checked here once: a failed write, say to a full
  // disk, must not exit 0 with a truncated report.
  std::cout.flush();
  if (!std::cout || std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
    std::cerr << sub << ": write error on stdout\n";
    return 2;
  }
  return code;
}

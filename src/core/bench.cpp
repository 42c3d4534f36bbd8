#include "core/bench.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <regex>
#include <sstream>

#include "common/codec.hpp"
#include "common/hash.hpp"
#include "core/envelope.hpp"

#ifndef BSM_GIT_SHA
#define BSM_GIT_SHA "unknown"
#endif

namespace bsm::core {

BenchRegistry& BenchRegistry::global() {
  static BenchRegistry registry;
  return registry;
}

void BenchRegistry::add(BenchCase c) { cases_.push_back(std::move(c)); }

std::vector<BenchCase> BenchRegistry::matching(const std::string& filter) const {
  if (filter.empty()) return cases_;
  const std::regex re(filter);
  std::vector<BenchCase> out;
  for (const auto& c : cases_) {
    if (std::regex_search(c.name, re)) out.push_back(c);
  }
  return out;
}

void register_bench(BenchCase c) { BenchRegistry::global().add(std::move(c)); }

const char* build_git_sha() noexcept { return BSM_GIT_SHA; }

namespace {

[[nodiscard]] double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  if (xs.size() % 2 == 1) return xs[mid];
  return (xs[mid - 1] + xs[mid]) / 2.0;
}

/// Shortest round-trippable rendering of a double ("%.17g" is exact but
/// ugly; benchmarks don't need sub-nanosecond digits).
[[nodiscard]] std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  // "%g" can produce "inf"/"nan", which are not JSON. Clamp to 0.
  const std::string s(buf);
  if (s.find_first_not_of("0123456789+-.eE") != std::string::npos) return "0";
  return s;
}

}  // namespace

std::vector<BenchResult> run_benchmarks(const std::vector<BenchCase>& cases,
                                        const BenchOptions& opts) {
  BenchContext ctx;
  ctx.threads = opts.threads;

  std::vector<BenchResult> results;
  results.reserve(cases.size());
  for (const auto& c : cases) {
    BenchResult r;
    r.name = c.name;
    r.repeats = opts.repeats > 0 ? opts.repeats : c.repeats;
    if (r.repeats < 1) r.repeats = 1;
    r.warmup = c.warmup < 0 ? 0 : c.warmup;

    for (int w = 0; w < r.warmup; ++w) (void)c.run(ctx);

    std::optional<BenchRun> first;
    for (int i = 0; i < r.repeats; ++i) {
      Timer timer;
      BenchRun run = c.run(ctx);
      r.wall_ms.push_back(timer.elapsed_ms());
      if (!first) {
        first = run;
      } else if (!(run == *first)) {
        r.deterministic = false;
      }
      r.run = std::move(run);
    }

    r.min_ms = *std::min_element(r.wall_ms.begin(), r.wall_ms.end());
    r.median_ms = median_of(r.wall_ms);
    r.mean_ms = std::accumulate(r.wall_ms.begin(), r.wall_ms.end(), 0.0) /
                static_cast<double>(r.wall_ms.size());
    if (r.median_ms > 0.0 && r.run.cells > 0) {
      r.cells_per_sec = static_cast<double>(r.run.cells) / (r.median_ms / 1000.0);
    }
    results.push_back(std::move(r));
  }
  return results;
}

JsonReporter::JsonReporter(unsigned threads, std::string git_sha)
    : threads_(resolve_report_threads(threads)), git_sha_(std::move(git_sha)) {}

std::string JsonReporter::render(const std::vector<BenchResult>& results) const {
  bool all_ok = true;
  bool all_deterministic = true;
  for (const auto& r : results) {
    all_ok &= r.run.ok;
    all_deterministic &= r.deterministic;
  }

  std::ostringstream out;
  out << "{\n";
  // The shared report envelope (core/envelope.hpp) leads, then the
  // bench-specific fields; "tool" is kept for v1 consumers' muscle memory.
  out << "  \"schema_version\": " << kBenchSchemaVersion << ",\n";
  out << "  \"subcommand\": \"bench\",\n";
  out << "  \"git_sha\": \"" << json_escape(git_sha_) << "\",\n";
  out << "  \"threads\": " << threads_ << ",\n";
  out << "  \"tool\": \"bsm-bench\",\n";
  out << "  \"total_cases\": " << results.size() << ",\n";
  out << "  \"all_ok\": " << (all_ok ? "true" : "false") << ",\n";
  out << "  \"all_deterministic\": " << (all_deterministic ? "true" : "false") << ",\n";
  out << "  \"cases\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\n";
    out << "      \"name\": \"" << json_escape(r.name) << "\",\n";
    out << "      \"repeats\": " << r.repeats << ",\n";
    out << "      \"warmup\": " << r.warmup << ",\n";
    out << "      \"wall_ms\": [";
    for (std::size_t j = 0; j < r.wall_ms.size(); ++j) {
      out << (j ? ", " : "") << json_number(r.wall_ms[j]);
    }
    out << "],\n";
    out << "      \"min_ms\": " << json_number(r.min_ms) << ",\n";
    out << "      \"median_ms\": " << json_number(r.median_ms) << ",\n";
    out << "      \"mean_ms\": " << json_number(r.mean_ms) << ",\n";
    out << "      \"cells\": " << r.run.cells << ",\n";
    out << "      \"cells_per_sec\": " << json_number(r.cells_per_sec) << ",\n";
    out << "      \"rounds\": " << r.run.rounds << ",\n";
    out << "      \"messages\": " << r.run.messages << ",\n";
    out << "      \"bytes\": " << r.run.bytes << ",\n";
    out << "      \"digest\": \"" << to_hex(r.run.digest) << "\",\n";
    out << "      \"deterministic\": " << (r.deterministic ? "true" : "false") << ",\n";
    out << "      \"ok\": " << (r.run.ok ? "true" : "false") << "\n";
    out << "    }";
  }
  out << (results.empty() ? "" : "\n  ") << "],\n";
  out << "  \"ok\": " << (all_ok && all_deterministic ? "true" : "false") << "\n";
  out << "}\n";
  return out.str();
}

cli::Subcommand bench_subcommand(BenchCliState& state) {
  cli::Subcommand sub;
  sub.name = "bench";
  sub.summary = "run the benchmark suite, emit BENCH_results.json on stdout";
  sub.intro =
      "runs every registered benchmark case group (--filter '^group/'\n"
      "selects one) and prints the versioned BENCH_results.json schema,\n"
      "documented in docs/BENCHMARKS.md, on stdout; exit 0 iff every case\n"
      "was ok and deterministic, 1 on a failed case, 2 on a usage error";
  sub.flags = {
      cli::value_flag("--threads", "N",
                      "worker threads for parallel cases (default: 0 = hardware)",
                      [&state](const std::string& v) -> std::optional<std::string> {
                        std::uint64_t n = 0;
                        if (auto reason = cli::parse_bounded(v, 0, 1024, n)) return reason;
                        state.opts.threads = static_cast<unsigned>(n);
                        return std::nullopt;
                      }),
      cli::value_flag("--repeats", "N", "override every case's repeat count",
                      [&state](const std::string& v) -> std::optional<std::string> {
                        std::uint64_t n = 0;
                        if (auto reason = cli::parse_bounded(v, 1, 1000, n)) return reason;
                        state.opts.repeats = static_cast<int>(n);
                        return std::nullopt;
                      }),
      cli::value_flag("--filter", "REGEX", "run only cases whose name matches (regex search)",
                      [&state](const std::string& v) -> std::optional<std::string> {
                        state.opts.filter = v;
                        return std::nullopt;
                      }),
      cli::value_flag("--json", "PATH|-",
                      "write BENCH_results.json to PATH and a summary to stdout\n"
                      "                        (default: '-' = JSON on stdout)",
                      [&state](const std::string& v) -> std::optional<std::string> {
                        if (v.empty()) return "expected a file path or -";
                        state.json_path = v;
                        return std::nullopt;
                      }),
      cli::flag("--list", "print registered case names and exit",
                [&state] { state.list = true; }),
  };
  return sub;
}

int bench_main(int argc, char** argv) {
  BenchCliState state;
  const cli::Subcommand sub = bench_subcommand(state);
  if (const auto code = cli::parse_flags(sub, argc, argv, 1, std::cerr)) return *code;
  const BenchOptions& opts = state.opts;
  const std::string& json_path = state.json_path;

  std::vector<BenchCase> cases;
  try {
    cases = BenchRegistry::global().matching(opts.filter);
  } catch (const std::regex_error& e) {
    std::cerr << "bad --filter regex: " << e.what() << "\n";
    return 2;
  }
  // A run of no case would pass vacuously: an empty selection is a usage
  // error, listed or run.
  if (cases.empty()) {
    std::cerr << "bench: --filter " << opts.filter << " matches no case\n";
    return 2;
  }

  if (state.list) {
    for (const auto& c : cases) std::cout << c.name << "\n";
    return 0;
  }

  // Open the report file before the first case runs: an unusable path
  // must not cost the whole suite.
  std::ofstream f;
  if (json_path != "-") {
    f.open(json_path);
    if (!f) {
      std::cerr << "bench: cannot write " << json_path << "\n";
      return 2;
    }
  }

  const auto results = run_benchmarks(cases, opts);

  bool suite_ok = true;
  for (const auto& r : results) suite_ok &= r.run.ok && r.deterministic;

  const JsonReporter reporter(opts.threads);
  if (json_path == "-") {
    std::cout << reporter.render(results);
  } else {
    f << reporter.render(results);
    if (const std::string error = close_report(f, json_path); !error.empty()) {
      std::cerr << "bench: " << error << "\n";
      return 2;
    }
    // With the JSON in a file, stdout gets a human-readable summary.
    for (const auto& r : results) {
      std::printf("%-44s  median %10.3f ms", r.name.c_str(), r.median_ms);
      if (r.cells_per_sec > 0.0) std::printf("  %12.1f cells/s", r.cells_per_sec);
      std::printf("  msgs %-10llu %s%s\n", static_cast<unsigned long long>(r.run.messages),
                  r.run.ok ? "ok" : "FAIL", r.deterministic ? "" : " NONDETERMINISTIC");
    }
    std::printf("%zu case(s), git %s: %s\n", results.size(), build_git_sha(),
                suite_ok ? "all ok" : "FAILURES");
  }
  return suite_ok ? 0 : 1;
}

}  // namespace bsm::core

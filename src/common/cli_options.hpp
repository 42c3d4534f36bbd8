// Declarative CLI flag tables — the single parsing surface behind every
// bsm_cli subcommand and the bench harness entry point.
//
// Each subcommand used to hand-roll the same loop: scan argv, gate on a
// known-flag list, pull the value, validate, print one of three error
// shapes. Five copies drifted five ways. Here the subcommand *declares*
// its flags — name, value placeholder, help line, and a parse/set action
// bound to the subcommand's option state — and one engine derives
// everything else: parsing, `--help` text, and the exit-2 error contract.
//
// The error contract (pinned by tests/cli_contract_test.cpp):
//   unknown flag   ->  "unknown <sub> argument: --x (try --help)", exit 2
//   missing value  ->  "missing value for --x", exit 2
//   bad value      ->  "bad --x value: <v> (<reason>)", exit 2
//
// Adding a flag is adding one table row; a flag that exists only in a
// hand-rolled loop is a bug by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace bsm::cli {

/// One flag row. A flag takes a value (value_name non-empty, `parse`
/// consumes it, spelled `--flag V` or `--flag=V`), is a bare switch
/// (`set` fires on sight), or — with both actions — takes an *optional*
/// value: bare `--flag` fires `set` (the default), `--flag=V` goes
/// through `parse`.
struct FlagSpec {
  std::string name;        ///< including dashes, e.g. "--threads"
  std::string value_name;  ///< placeholder for help, e.g. "N"; "" = switch
  std::string help;        ///< one line; embedded '\n' lines pass through verbatim

  /// Value flags: validate + store; return the "expected ..." reason on a
  /// bad value (the engine prefixes "bad --x value: v").
  std::function<std::optional<std::string>(const std::string&)> parse;

  /// Switch flags: store the fact the flag appeared.
  std::function<void()> set;

  [[nodiscard]] bool takes_value() const noexcept { return !value_name.empty(); }
  [[nodiscard]] bool value_optional() const noexcept {
    return static_cast<bool>(set) && static_cast<bool>(parse);
  }
};

/// Row factories, so tables read as tables.
[[nodiscard]] FlagSpec flag(std::string name, std::string help, std::function<void()> set);
[[nodiscard]] FlagSpec value_flag(
    std::string name, std::string value_name, std::string help,
    std::function<std::optional<std::string>(const std::string&)> parse);
/// `--flag` alone fires `set`; `--flag=V` runs `parse`. Help renders as
/// `--flag[=V]`.
[[nodiscard]] FlagSpec optional_value_flag(
    std::string name, std::string value_name, std::string help, std::function<void()> set,
    std::function<std::optional<std::string>(const std::string&)> parse);

/// One subcommand: identity, help prose, and the flag table. `positional`
/// (when set) receives every non-flag token — subcommands without it
/// reject positionals as unknown arguments.
struct Subcommand {
  std::string name;     ///< "sweep"; used in usage lines and error messages
  std::string summary;  ///< one-liner for the top-level help index
  std::string intro;    ///< paragraph above the flag table in help

  std::vector<FlagSpec> flags;

  std::string positional_name;  ///< placeholder, e.g. "FILE.jsonl"
  std::string positional_help;
  std::function<void(const std::string&)> positional;

  /// Full `bsm_cli <name> --help` text: usage line, intro, flag table.
  [[nodiscard]] std::string help_text() const;

  /// Just the aligned flag table lines (shared with the top-level help).
  [[nodiscard]] std::string flag_lines() const;
};

/// Parse argv[first, argc) against `sub`'s table. Returns nullopt when
/// every flag parsed (the caller carries on), else the exit code: 0 after
/// --help was printed, 2 after a contract violation was reported to
/// `err`. Actions fire in argv order as flags are recognized; on an error
/// the earlier actions have already fired (callers exit immediately, so
/// partial state is moot).
[[nodiscard]] std::optional<int> parse_flags(const Subcommand& sub, int argc, char** argv,
                                             int first, std::ostream& err);

/// Bounded-integer helper for flag lambdas: strict parse_u64 plus a
/// [lo, hi] range check; assigns `out` and returns nullopt, or returns
/// the canonical "expected lo..hi" reason.
[[nodiscard]] std::optional<std::string> parse_bounded(const std::string& value, std::uint64_t lo,
                                                       std::uint64_t hi, std::uint64_t& out);

/// The combined `bsm_cli --help`: tool banner, usage index built from each
/// subcommand's summary, then every subcommand's intro + flag table.
[[nodiscard]] std::string render_help(const std::string& tool, const std::string& banner,
                                      const std::vector<const Subcommand*>& subs);

}  // namespace bsm::cli

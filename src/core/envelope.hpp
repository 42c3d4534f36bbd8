// The unified JSON envelope every machine-readable report shares.
//
// All five bsm_cli subcommands (run prints a human table; sweep, explore,
// fuzz, and bench emit JSON) plus the streaming sweep JSONL header lead
// with the same versioned field block:
//
//   "schema_version": <kJsonSchemaVersion>, "subcommand": "<name>",
//   "git_sha": "<configure-time sha>", "threads": <resolved worker count>
//
// so any consumer can dispatch on one shape instead of per-subcommand
// sniffing (tools/validate_json.py --schema auto does exactly that). The
// streaming JSONL header is the one deliberate exception: it omits
// `threads`, because the streamed file is contractually byte-identical
// across thread counts (see core/shard.hpp) and a thread field would break
// that bar for zero information — thread counts are a throughput knob,
// never an outcome knob.
#pragma once

#include <string>

namespace bsm::core {

/// Version of the shared envelope (and of every report schema built on
/// it). v1 was the bench-only schema; v2 added the subcommand field and
/// extended the envelope to sweep/explore/fuzz and the sweep JSONL header;
/// v3 dropped the sweep summary's persisted oracle-cache load/save counts.
/// Bump on any breaking change to a report shape.
inline constexpr int kJsonSchemaVersion = 3;

/// Worker-count resolution shared by every report: 0 = hardware
/// concurrency (>= 1).
[[nodiscard]] unsigned resolve_report_threads(unsigned requested) noexcept;

/// The envelope rendered as a JSON object *fragment* (no braces), ready to
/// lead a report: `"schema_version": 3, "subcommand": "sweep",
/// "git_sha": "...", "threads": 8`. `threads` is resolved via
/// resolve_report_threads. Pass include_threads = false for the JSONL
/// header (see above).
[[nodiscard]] std::string envelope_json(const std::string& subcommand, unsigned threads,
                                        bool include_threads = true);

/// envelope_json with an explicit git SHA (tests pin it; production code
/// uses the configure-time default).
[[nodiscard]] std::string envelope_json_with_sha(const std::string& subcommand,
                                                 const std::string& git_sha, unsigned threads,
                                                 bool include_threads = true);

}  // namespace bsm::core

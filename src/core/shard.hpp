// Sharded, streaming, resumable sweeps — the scale-out layer over
// run_sweep().
//
// A monolithic run_sweep() tops out at one process's cores and holds every
// CellResult in memory. This layer splits a SweepGrid's cell list into
// deterministic contiguous shards (any i/N split of the same grid yields
// the same partition, keyed by a canonical grid digest so mismatched grids
// are rejected instead of silently merged), executes one shard per
// process, and streams results as JSONL — one self-contained line per
// cell, written in grid order, so a shard's resident result set is one
// checkpoint block instead of the whole grid.
//
// The determinism bar is strict and byte-level: the merged output of any
// complete shard set is bit-for-bit identical to the single-process
// (--shard 1/1) sweep, at any shard count, any thread count, and across
// any kill/--resume cycle. Three design rules make that hold:
//
//   1. Every line is a pure function of the grid and the cell index. The
//      header carries the shared JSON envelope minus `threads` (see
//      core/envelope.hpp); cell lines carry only per-cell outcome facts;
//      no timestamps, no scheduler stats, no counters that race.
//   2. Checkpoint records land at *global* cell indices (multiples of
//      checkpoint_every), so a shard [b, e) emits exactly the checkpoint
//      lines the 1/1 run emits inside (b, e] and concatenation tiles
//      perfectly.
//   3. Resume truncates to the last complete line and re-executes from the
//      next cell, so an interrupted-then-resumed file converges to the
//      uninterrupted bytes (cells are pure functions of the ScenarioSpec).
//
// The nondeterministic facts a run still wants to report — wall time,
// scheduler shape, oracle-cache hit rates — go in the `bsm_cli sweep`
// stdout report, never in the stream.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/sweep.hpp"

namespace bsm::core {

/// One contiguous 1-based i-of-N slice of a cell range. parse("3/7") =
/// {3, 7}; 1/1 is the whole range (the single-process identity).
struct ShardSpec {
  std::uint32_t index = 1;  ///< 1-based shard number, in [1, count]
  std::uint32_t count = 1;  ///< total shards, >= 1

  /// Strict "i/N" parse: nullopt unless 1 <= i <= N <= 100000.
  [[nodiscard]] static std::optional<ShardSpec> parse(std::string_view text);

  /// This shard's contiguous [begin, end) slice of [0, total): same
  /// balanced partition rule as the sweep scheduler's static partitions
  /// (first `total % count` shards get one extra cell).
  [[nodiscard]] std::pair<std::size_t, std::size_t> range(std::size_t total) const;

  [[nodiscard]] std::string str() const;  ///< "i/N"

  bool operator==(const ShardSpec&) const = default;
};

/// Canonical digest of one cell's full value — every field that feeds
/// to_run_spec(), so two grids agree on the digest iff they would run the
/// same experiments in the same order.
[[nodiscard]] std::uint64_t scenario_digest(const ScenarioSpec& scenario);

/// Canonical digest of a whole grid (order-dependent fold of
/// scenario_digest over the cells). This is the key shard files carry: a
/// merge across grids — or across two commits that changed cell
/// enumeration — fails loudly instead of interleaving unrelated results.
[[nodiscard]] std::uint64_t grid_digest(const std::vector<ScenarioSpec>& cells);

// ----------------------------------------------------------- JSONL format
//
// A shard document is newline-delimited JSON, one object per line:
//
//   {"type": "header", <envelope minus threads>, "grid_digest": "<hex16>",
//    "total_cells": T, "checkpoint_every": K, "shard": "i/N",
//    "begin": b, "end": e}
//   {"type": "cell", "cell": <global index>, <cell outcome fields>}
//   {"type": "checkpoint", "next_cell": C}     (C a positive multiple of K,
//                                               emitted *before* cell C)
//   {"type": "summary", "cells": C, "ran": R, "all_properties_held": B}

/// The per-cell outcome fields shared by the JSONL cell line and the
/// inline `bsm_cli sweep` report: a JSON object *fragment* (no braces)
/// rendering topology/auth/k/tl/tr/input_seed/adversaries/solvable, the
/// schedule desc when non-synchronous, and — for cells that ran —
/// protocol/rounds/messages/bytes and the four property verdicts. Pure
/// function of the cell value and outcome.
[[nodiscard]] std::string cell_json_fields(const CellResult& cell);

[[nodiscard]] std::string jsonl_header_line(std::uint64_t grid_digest_value,
                                            std::size_t total_cells,
                                            std::size_t checkpoint_every, const ShardSpec& shard);
[[nodiscard]] std::string jsonl_cell_line(std::size_t global_index, const CellResult& cell);
[[nodiscard]] std::string jsonl_checkpoint_line(std::size_t next_cell);
[[nodiscard]] std::string jsonl_summary_line(std::size_t cells, std::size_t ran, bool all_ok);

// ------------------------------------------------------------- streaming

struct StreamOptions {
  ShardSpec shard;                    ///< which slice of the grid to run
  std::size_t checkpoint_every = 64;  ///< global-index checkpoint period (>= 1)
  SweepOptions sweep;                 ///< threads / schedule / oracle for execution
};

/// What one streaming run did. `cells`/`ran`/`all_ok` cover the whole
/// shard (including lines kept by --resume); `emitted`/`resumed` split it
/// into executed-now vs already-on-disk; `digest` folds the emitted cell
/// lines' bytes (the bench determinism hook); `sweep` accumulates the
/// executor's schedule/oracle accounting over all checkpoint blocks.
struct StreamStats {
  std::size_t cells = 0;
  std::size_t ran = 0;
  bool all_ok = true;
  std::size_t emitted = 0;
  std::size_t resumed = 0;
  std::uint64_t digest = 0;
  SweepStats sweep;
};

/// Stream the complete shard document for `cells` to `out`: header, cell
/// lines in grid order with periodic checkpoints, summary. Execution is
/// parallel inside each checkpoint block (run_sweep over the block's
/// cells) but only one block of results is ever resident — O(1) in the
/// grid size. The written bytes are independent of opts.sweep (threads,
/// schedule, chunking, cache): that is the determinism bar, asserted by
/// tests/shard_test.cpp.
StreamStats stream_sweep(const std::vector<ScenarioSpec>& cells, const StreamOptions& opts,
                         std::ostream& out);

struct FileStreamResult {
  StreamStats stats;
  bool resumed_complete = false;  ///< file already held the whole shard
  std::string error;              ///< non-empty = nothing (further) written
};

/// stream_sweep into a file. With `resume` and an existing file: validate
/// the header byte-for-byte against this invocation's grid/shard, keep
/// every complete line, truncate a torn tail (a kill mid-write loses at
/// most the line being written), and execute only the remaining cells. A
/// header that matches a *different* grid or shard is a hard error, never
/// an overwrite. Without `resume`, an existing file is overwritten.
[[nodiscard]] FileStreamResult stream_sweep_file(const std::vector<ScenarioSpec>& cells,
                                                 const StreamOptions& opts,
                                                 const std::string& path, bool resume);

// ----------------------------------------------------------------- merge

/// Merge complete shard documents into the canonical single-process
/// document. Validates that every document is complete (summary present),
/// holds each cell line of its range once and in order with the checkpoint
/// lines due between them and the summary those lines imply, carries the
/// same header identity (schema, git SHA, grid digest, total), and that the
/// shard ranges tile [0, total) exactly — any gap, overlap, or mismatch is
/// an error. Documents may be passed in any order. The result is
/// byte-identical to a 1/1 stream_sweep of the same grid; in particular,
/// merging a single complete 1/1 document is the identity.
[[nodiscard]] std::optional<std::string> merge_jsonl(const std::vector<std::string>& shard_docs,
                                                     std::string* error);

}  // namespace bsm::core

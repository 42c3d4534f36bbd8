#include "core/shard.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/codec.hpp"
#include "common/hash.hpp"
#include "core/bench.hpp"
#include "core/envelope.hpp"
#include "net/topology.hpp"
#include "obs/recorder.hpp"

namespace bsm::core {

namespace fs = std::filesystem;

namespace {

[[nodiscard]] std::uint64_t line_digest(const std::string& line) {
  return fnv1a64(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(line.data()),
                                               line.size()));
}

/// The header with every identity field explicit — merge_jsonl reconstructs
/// the 1/1 header from fields carried by shard files (their git SHA, not
/// the merging binary's).
[[nodiscard]] std::string render_header(const std::string& git_sha, const std::string& grid_hex,
                                        std::size_t total_cells, std::size_t checkpoint_every,
                                        const ShardSpec& shard) {
  const auto [begin, end] = shard.range(total_cells);
  std::ostringstream out;
  out << "{\"type\": \"header\", " << envelope_json_with_sha("sweep", git_sha, 0, false)
      << ", \"grid_digest\": \"" << grid_hex << "\", \"total_cells\": " << total_cells
      << ", \"checkpoint_every\": " << checkpoint_every << ", \"shard\": \"" << shard.str()
      << "\", \"begin\": " << begin << ", \"end\": " << end << "}";
  return out.str();
}

/// Does the 1/1 stream put a checkpoint line immediately before cell `g`?
[[nodiscard]] bool checkpoint_due(std::size_t g, std::size_t every) {
  return g > 0 && g % every == 0;
}

/// How far a document's body follows the line sequence its header promises.
struct BodyWalk {
  std::size_t next = 0;  ///< first cell whose group did not match
  std::size_t pos = 0;   ///< byte just past the last matched group
  std::size_t ran = 0;   ///< matched cell lines that carry a run
  bool all_ok = true;    ///< no matched cell line reports a failed property
};

/// Walk the expected lines of cells [begin, end) in `text` from byte `pos`.
/// The unit is the cell *group*: the checkpoint line due right before cell
/// g, then a whole line opening with cell g's prefix. Stops at the first
/// group that does not match, so a gap, a repeat or a torn line ends it.
[[nodiscard]] BodyWalk walk_cell_groups(std::string_view text, std::size_t pos, std::size_t begin,
                                        std::size_t end, std::size_t every) {
  BodyWalk walk{begin, pos};
  for (; walk.next < end; ++walk.next) {
    std::size_t cursor = walk.pos;
    if (checkpoint_due(walk.next, every)) {
      const std::string cp = jsonl_checkpoint_line(walk.next);
      if (text.compare(cursor, cp.size(), cp) != 0 || cursor + cp.size() >= text.size() ||
          text[cursor + cp.size()] != '\n') {
        break;
      }
      cursor += cp.size() + 1;
    }
    const std::string prefix =
        "{\"type\": \"cell\", \"cell\": " + std::to_string(walk.next) + ", ";
    if (text.compare(cursor, prefix.size(), prefix) != 0) break;
    const auto line_end = text.find('\n', cursor);
    if (line_end == std::string_view::npos) break;
    const std::string_view line = text.substr(cursor, line_end - cursor);
    if (line.find("\"protocol\"") != std::string_view::npos) ++walk.ran;
    if (line.find("\"all_properties\": false") != std::string_view::npos) walk.all_ok = false;
    walk.pos = line_end + 1;
  }
  return walk;
}

/// Execute cells [start, end) of the grid and emit their lines to `out`,
/// one checkpoint-aligned block at a time (flushed per block, so a kill
/// loses at most the block in flight). Updates st's emitted/ran/all_ok/
/// digest and folds the executor accounting into st.sweep.
void run_blocks(const std::vector<ScenarioSpec>& cells, const StreamOptions& opts,
                std::size_t start, std::size_t end, std::ostream& out, StreamStats& st) {
  const std::size_t every = std::max<std::size_t>(1, opts.checkpoint_every);
  obs::Recorder* const rec = obs::current();
  std::size_t g = start;
  while (g < end) {
    const std::size_t block_end = std::min(end, (g / every + 1) * every);
    const std::vector<ScenarioSpec> block(cells.begin() + static_cast<std::ptrdiff_t>(g),
                                          cells.begin() + static_cast<std::ptrdiff_t>(block_end));
    SweepStats block_stats;
    SweepOptions sweep_opts = opts.sweep;
    sweep_opts.index_base = g;  // trace spans name global cell indices
    const auto results = run_sweep(block, sweep_opts, &block_stats);
    st.sweep.threads = std::max(st.sweep.threads, block_stats.threads);
    st.sweep.cells += block_stats.cells;
    st.sweep.chunks += block_stats.chunks;
    st.sweep.steals += block_stats.steals;
    st.sweep.oracle += block_stats.oracle;
    const std::uint64_t emit_t0 = rec ? rec->now_ns() : 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::size_t idx = g + i;
      if (checkpoint_due(idx, every)) {
        const std::uint64_t cp_t0 = rec ? rec->now_ns() : 0;
        out << jsonl_checkpoint_line(idx) << '\n';
        if (rec != nullptr) {
          rec->record(obs::Span::ShardCheckpoint, cp_t0, rec->now_ns(), idx);
          rec->count(obs::Counter::Checkpoints);
        }
      }
      const std::string line = jsonl_cell_line(idx, results[i]);
      out << line << '\n';
      st.digest = hash_combine(st.digest, line_digest(line));
      ++st.emitted;
      if (results[i].outcome.has_value()) {
        ++st.ran;
        st.all_ok &= results[i].outcome->report.all();
      }
    }
    if (rec != nullptr) {
      rec->record(obs::Span::ShardEmit, emit_t0, rec->now_ns(), g);
      rec->count(obs::Counter::CellsEmitted, results.size());
    }
    const std::uint64_t flush_t0 = rec ? rec->now_ns() : 0;
    out.flush();
    if (rec != nullptr) {
      rec->record(obs::Span::ShardFlush, flush_t0, rec->now_ns(), g);
      rec->count(obs::Counter::Flushes);
    }
    g = block_end;
  }
}

// ------------------------------------------------- merge field extraction
//
// Shard documents are produced by this file's own renderers, so field
// extraction is exact-prefix string search, not a JSON parser: the format
// is a contract (docs/BENCHMARKS.md) and anything that doesn't match it
// byte-for-byte is a merge error anyway.

[[nodiscard]] std::optional<std::string> field_string(const std::string& line, const char* name) {
  const std::string pat = std::string("\"") + name + "\": \"";
  const auto p = line.find(pat);
  if (p == std::string::npos) return std::nullopt;
  const auto start = p + pat.size();
  const auto quote = line.find('"', start);
  if (quote == std::string::npos) return std::nullopt;
  return line.substr(start, quote - start);
}

[[nodiscard]] std::optional<std::uint64_t> field_number(const std::string& line, const char* name) {
  const std::string pat = std::string("\"") + name + "\": ";
  const auto p = line.find(pat);
  if (p == std::string::npos) return std::nullopt;
  auto start = p + pat.size();
  auto end = start;
  while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
  if (end == start) return std::nullopt;
  return parse_u64(std::string_view(line).substr(start, end - start));
}

/// One parsed shard document, split into its three parts.
struct ParsedShard {
  std::string header;  ///< first line, no newline
  std::string body;    ///< every cell/checkpoint line, newlines included
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t total = 0;
  std::size_t checkpoint_every = 0;
  std::uint64_t schema = 0;
  std::string git_sha;
  std::string grid_hex;
  std::size_t ran = 0;
  bool all_ok = true;
};

[[nodiscard]] std::optional<ParsedShard> parse_shard_doc(const std::string& doc,
                                                         std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<ParsedShard> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  const auto header_end = doc.find('\n');
  if (header_end == std::string::npos ||
      !std::string_view(doc).starts_with("{\"type\": \"header\"")) {
    return fail("shard document does not start with a header line");
  }
  ParsedShard p;
  p.header = doc.substr(0, header_end);
  const auto schema = field_number(p.header, "schema_version");
  const auto sha = field_string(p.header, "git_sha");
  const auto grid = field_string(p.header, "grid_digest");
  const auto total = field_number(p.header, "total_cells");
  const auto every = field_number(p.header, "checkpoint_every");
  const auto begin = field_number(p.header, "begin");
  const auto end = field_number(p.header, "end");
  if (!schema || !sha || !grid || !total || !every || *every == 0 || !begin || !end ||
      *begin > *end || *end > *total) {
    return fail("malformed shard header: " + p.header);
  }
  p.schema = *schema;
  p.git_sha = *sha;
  p.grid_hex = *grid;
  p.total = *total;
  p.checkpoint_every = *every;
  p.begin = *begin;
  p.end = *end;

  static constexpr std::string_view kSummaryTag = "{\"type\": \"summary\"";
  const auto summary_at = doc.rfind(std::string("\n") + std::string(kSummaryTag));
  if (summary_at == std::string::npos || summary_at < header_end || doc.back() != '\n') {
    return fail("shard covering cells [" + std::to_string(p.begin) + ", " + std::to_string(p.end) +
                ") is incomplete (no summary line) — rerun it, or rerun with --resume");
  }
  const std::string summary = doc.substr(summary_at + 1, doc.size() - summary_at - 2);
  if (summary.find('\n') != std::string::npos) {
    return fail("trailing data after the summary line");
  }
  p.body = doc.substr(header_end + 1, summary_at - header_end);

  // A complete shard holds exactly the line sequence its header promises:
  // every cell of its range once and in order, with the checkpoint lines
  // due before them, then the summary of those lines.
  const BodyWalk walk = walk_cell_groups(p.body, 0, p.begin, p.end, p.checkpoint_every);
  if (walk.next != p.end || walk.pos != p.body.size()) {
    return fail("shard body breaks off at cell " + std::to_string(walk.next) + " of [" +
                std::to_string(p.begin) + ", " + std::to_string(p.end) +
                "): expected its checkpoint and cell lines in order, then the summary line");
  }
  if (summary != jsonl_summary_line(p.end - p.begin, walk.ran, walk.all_ok)) {
    return fail("shard summary does not match its cell lines: " + summary);
  }
  p.ran = walk.ran;
  p.all_ok = walk.all_ok;
  return p;
}

}  // namespace

// --------------------------------------------------------------- ShardSpec

std::optional<ShardSpec> ShardSpec::parse(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto index = parse_u64(text.substr(0, slash));
  const auto count = parse_u64(text.substr(slash + 1));
  if (!index || !count || *index == 0 || *count == 0 || *index > *count || *count > 100000) {
    return std::nullopt;
  }
  return ShardSpec{static_cast<std::uint32_t>(*index), static_cast<std::uint32_t>(*count)};
}

std::pair<std::size_t, std::size_t> ShardSpec::range(std::size_t total) const {
  const std::size_t n = count == 0 ? 1 : count;
  const std::size_t i = index == 0 ? 0 : index - 1;
  const std::size_t base = total / n;
  const std::size_t rem = total % n;
  const std::size_t begin = i * base + std::min(i, rem);
  return {begin, begin + base + (i < rem ? 1 : 0)};
}

std::string ShardSpec::str() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

// ----------------------------------------------------------------- digests

std::uint64_t scenario_digest(const ScenarioSpec& scenario) {
  // Canonical value encoding via the codec, digested with FNV-1a: every
  // field that feeds to_run_spec(), in declaration order, so any change to
  // what a cell *is* changes the digest.
  Writer w;
  w.u8(static_cast<std::uint8_t>(scenario.config.topology));
  w.u8(scenario.config.authenticated ? 1 : 0);
  w.u32(scenario.config.k);
  w.u32(scenario.config.tl);
  w.u32(scenario.config.tr);
  w.u64(scenario.input_seed);
  w.u64(scenario.pki_seed);
  w.u32(scenario.extra_rounds);
  w.u32(static_cast<std::uint32_t>(scenario.adversaries.size()));
  for (const auto& adv : scenario.adversaries) {
    w.u8(static_cast<std::uint8_t>(adv.kind));
    w.u32(adv.id);
    w.u32(adv.when);
    w.u64(adv.seed);
    w.u32(adv.crash_round);
    w.u32(adv.budget);
  }
  w.u8(scenario.forced_spec.has_value() ? 1 : 0);
  if (scenario.forced_spec.has_value()) {
    const ProtocolSpec& spec = *scenario.forced_spec;
    w.u8(static_cast<std::uint8_t>(spec.kind));
    w.u8(static_cast<std::uint8_t>(spec.relay));
    w.u32(spec.stride);
    w.u8(static_cast<std::uint8_t>(spec.algo_side));
    w.u32(spec.total_rounds);
  }
  w.u8(static_cast<std::uint8_t>(scenario.sched.kind));
  // Reserved byte, always 0: it stands where a channel-scope byte was
  // folded (0 for every cell), so grid_digest and the headers of existing
  // shards stay byte-identical.
  w.u8(0);
  w.u64(scenario.sched.seed);
  w.u32(scenario.sched.max_delay);
  w.u32(scenario.sched.delay_permille);
  w.u32(scenario.sched.omission_budget);
  w.u64(scenario.sched.trace.digest());
  // Reserved byte, always 0: it stands where a stats-representation byte
  // was folded (0 for every sweep cell), so grid_digest and the headers of
  // existing shards stay byte-identical.
  w.u8(0);
  // Folded only when set: a cell with the default guard keeps its
  // historical digest byte for byte.
  if (scenario.max_rounds != 0) w.u32(scenario.max_rounds);
  return fnv1a64(w.data());
}

std::uint64_t grid_digest(const std::vector<ScenarioSpec>& cells) {
  std::uint64_t h = splitmix64(cells.size());
  for (const ScenarioSpec& cell : cells) h = hash_combine(h, scenario_digest(cell));
  return h;
}

// ------------------------------------------------------------ line renders

std::string cell_json_fields(const CellResult& cell) {
  const auto& cfg = cell.scenario.config;
  std::ostringstream out;
  out << "\"topology\": \"" << json_escape(net::to_string(cfg.topology))
      << "\", \"auth\": " << (cfg.authenticated ? "true" : "false") << ", \"k\": " << cfg.k
      << ", \"tl\": " << cfg.tl << ", \"tr\": " << cfg.tr
      << ", \"input_seed\": " << cell.scenario.input_seed
      << ", \"adversaries\": " << cell.scenario.adversaries.size()
      << ", \"solvable\": " << (cell.solvable ? "true" : "false");
  if (!cell.scenario.sched.is_synchronous()) {
    const char* kind =
        cell.scenario.sched.kind == sched::PolicyDesc::Kind::RandomDelay ? "delay" : "omit";
    out << ", \"sched\": \"" << kind << "\", \"sched_seed\": " << cell.scenario.sched.seed;
  }
  if (cell.outcome.has_value()) {
    const auto& run = *cell.outcome;
    out << ", \"protocol\": \"" << json_escape(run.spec.describe())
        << "\", \"rounds\": " << run.rounds << ", \"messages\": " << run.traffic.messages
        << ", \"bytes\": " << run.traffic.bytes << ", \"properties\": {\"termination\": "
        << (run.report.termination ? "true" : "false")
        << ", \"symmetry\": " << (run.report.symmetry ? "true" : "false")
        << ", \"stability\": " << (run.report.stability ? "true" : "false")
        << ", \"non_competition\": " << (run.report.non_competition ? "true" : "false")
        << "}, \"all_properties\": " << (run.report.all() ? "true" : "false");
    // Round-complexity verdict: emitted only for a run that failed to
    // terminate, so every cell line whose run terminated under a bounded
    // schedule keeps its exact bytes.
    if (!run.terminated || run.round_limit_hit) {
      out << ", \"terminated\": " << (run.terminated ? "true" : "false")
          << ", \"rounds_to_termination\": " << run.rounds_to_termination
          << ", \"round_limit_hit\": " << (run.round_limit_hit ? "true" : "false");
    }
  }
  return out.str();
}

std::string jsonl_header_line(std::uint64_t grid_digest_value, std::size_t total_cells,
                              std::size_t checkpoint_every, const ShardSpec& shard) {
  return render_header(build_git_sha(), to_hex(grid_digest_value), total_cells, checkpoint_every,
                       shard);
}

std::string jsonl_cell_line(std::size_t global_index, const CellResult& cell) {
  std::ostringstream out;
  out << "{\"type\": \"cell\", \"cell\": " << global_index << ", " << cell_json_fields(cell)
      << "}";
  return out.str();
}

std::string jsonl_checkpoint_line(std::size_t next_cell) {
  return "{\"type\": \"checkpoint\", \"next_cell\": " + std::to_string(next_cell) + "}";
}

std::string jsonl_summary_line(std::size_t cells, std::size_t ran, bool all_ok) {
  std::ostringstream out;
  out << "{\"type\": \"summary\", \"cells\": " << cells << ", \"ran\": " << ran
      << ", \"all_properties_held\": " << (all_ok ? "true" : "false") << "}";
  return out.str();
}

// -------------------------------------------------------------- streaming

StreamStats stream_sweep(const std::vector<ScenarioSpec>& cells, const StreamOptions& opts,
                         std::ostream& out) {
  StreamStats st;
  const std::size_t every = std::max<std::size_t>(1, opts.checkpoint_every);
  const auto [begin, end] = opts.shard.range(cells.size());
  out << jsonl_header_line(grid_digest(cells), cells.size(), every, opts.shard) << '\n';
  run_blocks(cells, opts, begin, end, out, st);
  out << jsonl_summary_line(end - begin, st.ran, st.all_ok) << '\n';
  out.flush();
  st.cells = end - begin;
  return st;
}

FileStreamResult stream_sweep_file(const std::vector<ScenarioSpec>& cells,
                                   const StreamOptions& opts, const std::string& path,
                                   bool resume) {
  FileStreamResult res;
  const std::size_t every = std::max<std::size_t>(1, opts.checkpoint_every);
  const auto [begin, end] = opts.shard.range(cells.size());
  const std::string header = jsonl_header_line(grid_digest(cells), cells.size(), every, opts.shard);

  std::size_t next = begin;       // first cell left to execute
  std::size_t kept_bytes = 0;     // validated file prefix to keep
  bool append = false;

  std::error_code ec;
  if (resume && fs::exists(path, ec)) {
    // A directory (or other non-regular file) at the target is never a
    // resumable document — and libstdc++ throws from the read on EISDIR,
    // so rule it out before touching the stream.
    if (!fs::is_regular_file(path, ec)) {
      res.error = "cannot read " + path + " (not a regular file)";
      return res;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      res.error = "cannot read " + path;
      return res;
    }
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const auto header_end = text.find('\n');
    if (header_end != std::string::npos && text.compare(0, header_end, header) != 0) {
      // A complete header that is not ours means a different grid, shard,
      // or build: refuse rather than silently overwrite someone's results.
      res.error = "resume: " + path + " holds a different grid/shard/build (header mismatch)";
      return res;
    }
    if (header_end != std::string::npos) {
      // Keep the longest valid prefix of the expected line sequence. It
      // ends on a cell-group boundary, so after truncation the writer
      // needs no partial-group state: it re-emits from that boundary.
      const BodyWalk walk = walk_cell_groups(text, header_end + 1, begin, end, every);
      kept_bytes = walk.pos;
      append = true;
      next = walk.next;
      res.stats.resumed = next - begin;
      res.stats.ran = walk.ran;
      res.stats.all_ok = walk.all_ok;
      if (next == end) {
        const std::string summary =
            jsonl_summary_line(end - begin, res.stats.ran, res.stats.all_ok);
        if (text.compare(kept_bytes, summary.size(), summary) == 0 &&
            kept_bytes + summary.size() < text.size() &&
            text[kept_bytes + summary.size()] == '\n') {
          res.resumed_complete = true;
          res.stats.cells = end - begin;
          return res;
        }
      }
    }
  }

  std::ofstream out;
  if (append) {
    fs::resize_file(path, kept_bytes, ec);
    if (ec) {
      res.error = "cannot truncate " + path + ": " + ec.message();
      return res;
    }
    out.open(path, std::ios::binary | std::ios::app);
  } else {
    out.open(path, std::ios::binary | std::ios::trunc);
    if (out) out << header << '\n';
  }
  if (!out) {
    res.error = "cannot write " + path;
    return res;
  }
  run_blocks(cells, opts, next, end, out, res.stats);
  out << jsonl_summary_line(end - begin, res.stats.ran, res.stats.all_ok) << '\n';
  res.error = close_report(out, path);
  if (!res.error.empty()) return res;
  res.stats.cells = end - begin;
  return res;
}

// ------------------------------------------------------------------ merge

std::optional<std::string> merge_jsonl(const std::vector<std::string>& shard_docs,
                                       std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<std::string> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  if (shard_docs.empty()) return fail("no shard documents to merge");

  std::vector<ParsedShard> shards;
  shards.reserve(shard_docs.size());
  for (const std::string& doc : shard_docs) {
    std::string parse_error;
    auto parsed = parse_shard_doc(doc, &parse_error);
    if (!parsed) return fail(parse_error);
    shards.push_back(std::move(*parsed));
  }

  const ParsedShard& first = shards.front();
  if (first.schema != static_cast<std::uint64_t>(kJsonSchemaVersion)) {
    return fail("unsupported schema_version " + std::to_string(first.schema));
  }
  for (const ParsedShard& s : shards) {
    if (s.schema != first.schema || s.git_sha != first.git_sha || s.grid_hex != first.grid_hex ||
        s.total != first.total || s.checkpoint_every != first.checkpoint_every) {
      return fail("shard headers disagree (grid digest, total, git SHA, or checkpoint period) — "
                  "shards must come from one grid and one build");
    }
  }

  std::sort(shards.begin(), shards.end(),
            [](const ParsedShard& a, const ParsedShard& b) { return a.begin < b.begin; });
  std::size_t expected = 0;
  for (const ParsedShard& s : shards) {
    if (s.begin != expected) {
      return fail("shard ranges do not tile the grid: expected a shard starting at cell " +
                  std::to_string(expected) + ", got " + std::to_string(s.begin));
    }
    expected = s.end;
  }
  if (expected != first.total) {
    return fail("shard ranges cover cells [0, " + std::to_string(expected) + ") of " +
                std::to_string(first.total) + " — a shard is missing");
  }

  std::size_t ran = 0;
  bool all_ok = true;
  std::string out = render_header(first.git_sha, first.grid_hex, first.total,
                                  first.checkpoint_every, ShardSpec{1, 1});
  out += '\n';
  for (const ParsedShard& s : shards) {
    out += s.body;
    ran += s.ran;
    all_ok &= s.all_ok;
  }
  out += jsonl_summary_line(first.total, ran, all_ok);
  out += '\n';
  return out;
}

}  // namespace bsm::core

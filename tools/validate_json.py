#!/usr/bin/env python3
"""Validate any bsm machine-readable report — one validator, every schema.

Usage: validate_json.py PATH [--schema bench|sweep|explore|fuzz|replay|auto]
                             [--require-ok] [--require-cases N]
                             [--require-no-violations] [--min-execs N]
                             [--require-metrics]

Every report leads with the shared envelope (schema_version, subcommand,
git_sha, and — where the document is not contractually byte-identical
across thread counts — threads), so one validator dispatches on
`subcommand` instead of one script per schema guessing from shape. Only
the current schema_version is accepted; there is no reader for older
documents.

Schemas (documented field-by-field in docs/BENCHMARKS.md):
  bench    BENCH_results.json from `bsm_cli bench`
  sweep    `bsm_cli sweep`: the inline JSON document, the --out summary
           report, or a JSONL shard document (the three are auto-told-apart)
  explore  `bsm_cli explore` report
  fuzz     `bsm_cli fuzz` report
  replay   `explore/fuzz --replay` document (envelope-free by contract)
  auto     dispatch on the envelope (default)

Predicates (each fails on a schema that does not define it):
  --require-ok             bench: overall ok; sweep: all_properties_held
                           (of the report or the JSONL summary line);
                           replay: all_properties
  --require-cases N        bench: at least N cases present
  --require-no-violations  explore/fuzz: zero property violations;
                           replay: no round_limit_hit
  --min-execs N            explore/fuzz: the search spent >= N runs
  --require-metrics        sweep/explore/fuzz: the optional `metrics` block
                           (from --metrics / --trace-out) must be present;
                           a JSONL shard document never carries one

Exits 0 when the document is schema-valid and every requested predicate
holds. Prints every violation found, not just the first.
"""
import json
import re
import sys

SCHEMA_VERSION = 3

DIGEST_RE = re.compile(r"^[0-9a-f]{16}$")
SHARD_RE = re.compile(r"^[0-9]+/[0-9]+$")

# ---------------------------------------------------------------- helpers


def check_fields(obj, fields, where, errors, extra_ok=()):
    if not isinstance(obj, dict):
        errors.append(f"{where}: expected an object")
        return
    for key, types in fields.items():
        if key not in obj:
            errors.append(f"{where}: missing field '{key}'")
            continue
        # bool is an int subclass in Python; require exact bools where asked.
        value = obj[key]
        if types is int and isinstance(value, bool):
            errors.append(f"{where}: field '{key}' must be an integer, got bool")
        elif types is bool:
            if not isinstance(value, bool):
                errors.append(f"{where}: field '{key}' must be a bool")
        elif not isinstance(value, types):
            errors.append(f"{where}: field '{key}' has wrong type {type(value).__name__}")
    for key in obj:
        if key not in fields and key not in extra_ok:
            errors.append(f"{where}: unknown field '{key}' (schema v{SCHEMA_VERSION})")


ENVELOPE_FIELDS = {
    "schema_version": int,
    "subcommand": str,
    "git_sha": str,
}


def check_envelope(doc, subcommand, where, errors, threads=True):
    """The shared report envelope. `threads=False` for documents that are
    contractually byte-identical across thread counts (fuzz, JSONL header)."""
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"{where}: schema_version {doc.get('schema_version')!r}, "
                      f"expected {SCHEMA_VERSION}")
    if doc.get("subcommand") != subcommand:
        errors.append(f"{where}: subcommand {doc.get('subcommand')!r}, "
                      f"expected '{subcommand}'")
    if not isinstance(doc.get("git_sha"), str) or not doc.get("git_sha"):
        errors.append(f"{where}: git_sha must be a non-empty string")
    if threads:
        t = doc.get("threads")
        if not isinstance(t, int) or isinstance(t, bool) or t < 1:
            errors.append(f"{where}: threads must be an integer >= 1 (the report "
                          "records the resolved count, never 0)")
    elif "threads" in doc:
        errors.append(f"{where}: '{subcommand}' reports are byte-identical across "
                      "thread counts and must not carry 'threads'")


# ------------------------------------------------------------------ bench

BENCH_TOP_FIELDS = {
    **ENVELOPE_FIELDS,
    "threads": int,
    "tool": str,
    "total_cases": int,
    "all_ok": bool,
    "all_deterministic": bool,
    "cases": list,
    "ok": bool,
}

BENCH_CASE_FIELDS = {
    "name": str,
    "repeats": int,
    "warmup": int,
    "wall_ms": list,
    "min_ms": (int, float),
    "median_ms": (int, float),
    "mean_ms": (int, float),
    "cells": int,
    "cells_per_sec": (int, float),
    "rounds": int,
    "messages": int,
    "bytes": int,
    "digest": str,
    "deterministic": bool,
    "ok": bool,
}


def validate_bench(doc):
    errors = []
    check_fields(doc, BENCH_TOP_FIELDS, "top level", errors)
    check_envelope(doc, "bench", "top level", errors)
    if doc.get("tool") != "bsm-bench":
        errors.append(f"top level: tool {doc.get('tool')!r}, expected 'bsm-bench'")

    cases = doc.get("cases", [])
    if isinstance(doc.get("total_cases"), int) and doc["total_cases"] != len(cases):
        errors.append(f"top level: total_cases {doc['total_cases']} != len(cases) {len(cases)}")

    seen = set()
    for i, case in enumerate(cases):
        where = f"cases[{i}]"
        if not isinstance(case, dict):
            errors.append(f"{where}: expected an object")
            continue
        check_fields(case, BENCH_CASE_FIELDS, where, errors)
        name = case.get("name", "")
        if isinstance(name, str):
            where = f"cases[{i}] ({name})"
            if "/" not in name:
                errors.append(f"{where}: name must be 'group/case'")
            if name in seen:
                errors.append(f"{where}: duplicate case name")
            seen.add(name)
        if isinstance(case.get("digest"), str) and not DIGEST_RE.match(case["digest"]):
            errors.append(f"{where}: digest must be 16 lowercase hex digits")
        wall = case.get("wall_ms", [])
        if isinstance(wall, list):
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in wall):
                errors.append(f"{where}: wall_ms must contain only numbers")
            elif isinstance(case.get("repeats"), int) and len(wall) != case["repeats"]:
                errors.append(f"{where}: len(wall_ms) {len(wall)} != repeats {case['repeats']}")
            elif wall:
                lo, hi = min(wall), max(wall)
                for key in ("min_ms", "median_ms", "mean_ms"):
                    v = case.get(key)
                    if isinstance(v, (int, float)) and not lo - 1e-9 <= v <= hi + 1e-9:
                        errors.append(f"{where}: {key} {v} outside wall_ms range [{lo}, {hi}]")

    expected_ok = doc.get("all_ok") and doc.get("all_deterministic")
    if isinstance(doc.get("ok"), bool) and doc["ok"] != bool(expected_ok):
        errors.append("top level: ok must equal all_ok && all_deterministic")
    return errors


# ---------------------------------------------------------------- metrics

# The observability recorder's versioned report block (docs/OBSERVABILITY.md),
# optionally present on sweep/explore/fuzz reports when the run enabled
# --metrics or --trace-out. Keys are pinned against src/obs/recorder.cpp.
METRICS_VERSION = 2

METRICS_COUNTER_KEYS = (
    "engine_rounds", "cells_done", "chunks", "steals", "idle_exits",
    "oracle_hits", "oracle_misses", "oracle_inserts", "cells_emitted",
    "checkpoints", "flushes", "evals",
)

METRICS_SPAN_KEYS = (
    "engine_assemble", "engine_policy", "engine_deliver", "engine_on_round",
    "sweep_chunk", "sweep_cell", "oracle_hit", "oracle_miss", "shard_emit",
    "shard_checkpoint", "shard_flush", "sched_eval",
)

METRICS_TOP_FIELDS = {
    "version": int,
    "spans": int,
    "spans_dropped": int,
    "counters": dict,
    "histograms": dict,
}

METRICS_HIST_FIELDS = {
    "count": int,
    "p50_ns": int,
    "p90_ns": int,
    "p99_ns": int,
    "max_ns": int,
}


def validate_metrics(doc, errors):
    """Validate the optional top-level `metrics` block when present."""
    metrics = doc.get("metrics")
    if metrics is None:
        return
    check_fields(metrics, METRICS_TOP_FIELDS, "metrics", errors)
    if not isinstance(metrics, dict):
        return
    if metrics.get("version") != METRICS_VERSION:
        errors.append(f"metrics: version {metrics.get('version')!r}, "
                      f"expected {METRICS_VERSION}")
    counters = metrics.get("counters", {})
    check_fields(counters, {k: int for k in METRICS_COUNTER_KEYS},
                 "metrics.counters", errors)
    hists = metrics.get("histograms", {})
    if isinstance(hists, dict):
        for key in METRICS_SPAN_KEYS:
            if key not in hists:
                errors.append(f"metrics.histograms: missing span '{key}'")
                continue
            where = f"metrics.histograms.{key}"
            check_fields(hists[key], METRICS_HIST_FIELDS, where, errors)
            h = hists[key]
            if isinstance(h, dict) and all(
                    isinstance(h.get(f), int) and not isinstance(h.get(f), bool)
                    for f in METRICS_HIST_FIELDS):
                if not h["p50_ns"] <= h["p90_ns"] <= h["p99_ns"] <= h["max_ns"]:
                    errors.append(f"{where}: percentiles must be non-decreasing "
                                  "up to max_ns")
                if h["count"] == 0 and h["max_ns"] != 0:
                    errors.append(f"{where}: an empty histogram must report 0 ns")
        for key in hists:
            if key not in METRICS_SPAN_KEYS:
                errors.append(f"metrics.histograms: unknown span '{key}'")


# ------------------------------------------------------------------ sweep

SCHEDULER_FIELDS = {"threads": int, "chunks": int, "steals": int}
ORACLE_FIELDS = {"hits": int, "misses": int, "inserts": int, "hit_rate": (int, float)}

SWEEP_INLINE_FIELDS = {
    **ENVELOPE_FIELDS,
    "threads": int,
    "cells": list,
    "total_cells": int,
    "ran": int,
    "scheduler": dict,
    "oracle_cache": dict,
    "all_properties_held": bool,
}

SWEEP_SUMMARY_FIELDS = {
    **ENVELOPE_FIELDS,
    "threads": int,
    "grid_digest": str,
    "total_cells": int,
    "shard": str,
    "begin": int,
    "end": int,
    "out": str,
    "resume": bool,
    "resumed_complete": bool,
    "cells": int,
    "ran": int,
    "emitted": int,
    "resumed": int,
    "scheduler": dict,
    "oracle_cache": dict,
    "all_properties_held": bool,
}

CELL_BASE_FIELDS = {
    "topology": str,
    "auth": bool,
    "k": int,
    "tl": int,
    "tr": int,
    "input_seed": int,
    "adversaries": int,
    "solvable": bool,
}

CELL_RAN_FIELDS = {
    "protocol": str,
    "rounds": int,
    "messages": int,
    "bytes": int,
    "properties": dict,
    "all_properties": bool,
}

# Round-complexity verdict, emitted for any run cut off before
# termination. Optional as a group: lines of terminated runs omit it.
CELL_LIVENESS_FIELDS = {
    "terminated": bool,
    "rounds_to_termination": int,
    "round_limit_hit": bool,
}

PROPERTY_FIELDS = {
    "termination": bool,
    "symmetry": bool,
    "stability": bool,
    "non_competition": bool,
}


def check_liveness(obj, where, errors):
    """Validate the optional round-complexity field group when any of it is
    present: all three fields together, typed, and a round_limit_hit run is
    by definition one the guard cut off while undecided."""
    if not any(k in obj for k in CELL_LIVENESS_FIELDS):
        return
    check_fields({k: v for k, v in obj.items() if k in CELL_LIVENESS_FIELDS},
                 CELL_LIVENESS_FIELDS, where, errors)
    if obj.get("round_limit_hit") is True and obj.get("terminated") is True:
        errors.append(f"{where}: round_limit_hit implies terminated == false")


def validate_cell(cell, where, errors):
    if not isinstance(cell, dict):
        errors.append(f"{where}: expected an object")
        return True
    extra = set(CELL_RAN_FIELDS) | set(CELL_LIVENESS_FIELDS) | {
        "sched", "sched_seed", "type", "cell"}
    check_fields(cell, CELL_BASE_FIELDS, where, errors, extra_ok=extra)
    if "sched" in cell and cell["sched"] not in ("delay", "omit"):
        errors.append(f"{where}: field 'sched' must be \"delay\" or \"omit\", "
                      f"got {cell['sched']!r}")
    all_ok = True
    if cell.get("solvable") is True and "protocol" in cell:
        check_fields({k: v for k, v in cell.items() if k in CELL_RAN_FIELDS},
                     CELL_RAN_FIELDS, where, errors)
        check_fields(cell.get("properties", {}), PROPERTY_FIELDS, f"{where}.properties", errors)
        check_liveness(cell, where, errors)
        all_ok = cell.get("all_properties") is True
    return all_ok


def validate_sweep_json(doc):
    """The inline document or the --out summary report (told apart by the
    type of `cells`: the inline document carries the per-cell array)."""
    errors = []
    if isinstance(doc.get("cells"), list):
        check_fields(doc, SWEEP_INLINE_FIELDS, "top level", errors,
                     extra_ok=("metrics",))
        check_envelope(doc, "sweep", "top level", errors)
        cells = doc["cells"]
        if isinstance(doc.get("total_cells"), int) and doc["total_cells"] != len(cells):
            errors.append(f"top level: total_cells {doc['total_cells']} != "
                          f"len(cells) {len(cells)}")
        all_ok = True
        for i, cell in enumerate(cells):
            all_ok &= validate_cell(cell, f"cells[{i}]", errors)
        if isinstance(doc.get("all_properties_held"), bool) and \
                doc["all_properties_held"] != all_ok:
            errors.append("top level: all_properties_held disagrees with the cells")
    else:
        check_fields(doc, SWEEP_SUMMARY_FIELDS, "top level", errors,
                     extra_ok=("metrics",))
        check_envelope(doc, "sweep", "top level", errors)
        grid = doc.get("grid_digest")
        if isinstance(grid, str) and not DIGEST_RE.match(grid):
            errors.append("top level: grid_digest must be 16 lowercase hex digits")
        shard = doc.get("shard")
        if isinstance(shard, str) and not SHARD_RE.match(shard):
            errors.append(f"top level: shard {shard!r} is not i/N")
        begin, end, total = doc.get("begin"), doc.get("end"), doc.get("total_cells")
        if all(isinstance(v, int) for v in (begin, end, total)) and \
                not begin <= end <= total:
            errors.append(f"top level: shard range [{begin}, {end}) does not fit "
                          f"total_cells {total}")
        if isinstance(doc.get("cells"), int) and isinstance(begin, int) and \
                isinstance(end, int) and doc["cells"] != end - begin:
            errors.append(f"top level: cells {doc['cells']} != end - begin {end - begin}")
    check_fields(doc.get("scheduler", {}), SCHEDULER_FIELDS, "scheduler", errors)
    check_fields(doc.get("oracle_cache", {}), ORACLE_FIELDS, "oracle_cache", errors)
    validate_metrics(doc, errors)
    return errors


HEADER_FIELDS = {
    "type": str,
    **ENVELOPE_FIELDS,
    "grid_digest": str,
    "total_cells": int,
    "checkpoint_every": int,
    "shard": str,
    "begin": int,
    "end": int,
}

SUMMARY_FIELDS = {"type": str, "cells": int, "ran": int, "all_properties_held": bool}


def checkpoint_due(g, every):
    """Does the stream put a checkpoint line right before cell g? The rule
    of `checkpoint_due` in core/shard.cpp."""
    return g > 0 and g % every == 0


def validate_sweep_jsonl(text, path):
    """A `sweep --out` shard document: header, cells in grid order with
    the checkpoint lines due before them, then (when complete) the summary
    of those cell lines. Walks the body the way `bsm_cli merge` does: every
    checkpoint line due, no other, and `ran` / `all_properties_held`
    recounted from the cell lines. Returns (errors, summary line or {})."""
    errors = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    elif lines:
        errors.append(f"line {len(lines)}: the last line is not newline-terminated "
                      "(torn write — rerun with --resume)")
    parsed = []
    for i, line in enumerate(lines):
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError as e:
            errors.append(f"line {i + 1}: not JSON: {e}")
            return errors, {}
        if not isinstance(parsed[-1], dict):
            errors.append(f"line {i + 1}: expected a JSON object")
            return errors, {}
    if not parsed or parsed[0].get("type") != "header":
        errors.append("line 1: expected the header line")
        return errors, {}

    header = parsed[0]
    check_fields(header, HEADER_FIELDS, "header", errors)
    # The JSONL header is the document whose bytes must not depend on the
    # thread count, so it must not carry `threads`.
    check_envelope(header, "sweep", "header", errors, threads=False)
    grid = header.get("grid_digest")
    if isinstance(grid, str) and not DIGEST_RE.match(grid):
        errors.append("header: grid_digest must be 16 lowercase hex digits")
    begin = header.get("begin", 0)
    end = header.get("end", 0)
    every = header.get("checkpoint_every", 0)
    if not (isinstance(begin, int) and isinstance(end, int) and
            isinstance(header.get("total_cells"), int) and
            begin <= end <= header["total_cells"]):
        errors.append("header: need begin <= end <= total_cells")
        return errors, {}
    if not isinstance(every, int) or every < 1:
        errors.append("header: checkpoint_every must be >= 1")
        return errors, {}

    next_cell = begin
    checkpointed = False  # the checkpoint due before next_cell was seen
    ran = 0
    all_held = True
    summary = None
    for i, obj in enumerate(parsed[1:], start=2):
        kind = obj.get("type")
        if summary is not None:
            errors.append(f"line {i}: data after the summary line")
            break
        if kind == "checkpoint":
            due = next_cell < end and checkpoint_due(next_cell, every)
            if obj.get("next_cell") != next_cell or not due or checkpointed:
                errors.append(f"line {i}: checkpoint next_cell {obj.get('next_cell')} "
                              f"out of place (expected one before each cell C > 0 "
                              f"with C % {every} == 0)")
            checkpointed = True
        elif kind == "cell":
            if checkpoint_due(next_cell, every) and not checkpointed:
                errors.append(f"line {i}: missing the checkpoint line due before "
                              f"cell {next_cell}")
            if obj.get("cell") != next_cell:
                errors.append(f"line {i}: cell index {obj.get('cell')}, "
                              f"expected {next_cell} (grid order)")
            validate_cell(obj, f"line {i}", errors)
            if "protocol" in obj:
                ran += 1
                all_held &= obj.get("all_properties") is True
            next_cell += 1
            checkpointed = False
        elif kind == "summary":
            summary = obj
            check_fields(obj, SUMMARY_FIELDS, f"line {i}", errors)
        else:
            errors.append(f"line {i}: unknown line type {kind!r}")
    if summary is None:
        errors.append(f"{path}: incomplete shard (no summary line) — "
                      "rerun it, or rerun with --resume")
    else:
        if next_cell != end:
            errors.append(f"summary: document holds cells [{begin}, {next_cell}), "
                          f"header promised [{begin}, {end})")
        if isinstance(summary.get("cells"), int) and summary["cells"] != end - begin:
            errors.append(f"summary: cells {summary['cells']} != end - begin {end - begin}")
        if isinstance(summary.get("ran"), int) and summary["ran"] != ran:
            errors.append(f"summary: ran {summary['ran']}, but {ran} cell line(s) "
                          "carry a run")
        if isinstance(summary.get("all_properties_held"), bool) and \
                summary["all_properties_held"] != all_held:
            errors.append(f"summary: all_properties_held {summary['all_properties_held']} "
                          "disagrees with the cell lines")
    return errors, summary or {}


# ----------------------------------------------------------- explore/fuzz

SCENARIO_FIELDS = {
    "topology": str,
    "auth": bool,
    "k": int,
    "tl": int,
    "tr": int,
    "seed": int,
    "battery": str,
    "adversaries": int,
}

EXPLORE_OPTIONS_FIELDS = {
    "max_depth": int,
    "max_delay": int,
    "horizon": int,
    "drop": bool,
    "delay": bool,
    "reorder": bool,
    "corrupt_adjacent_only": bool,
    "max_schedules": int,
}

FUZZ_OPTIONS_FIELDS = {
    "fuzz_seed": int,
    "max_execs": int,
    "batch": int,
    "max_ops": int,
    "max_delay": int,
    "horizon": int,
    "drop": bool,
    "delay": bool,
    "reorder": bool,
    "omission_budget": int,
    "corrupt_adjacent_only": bool,
    "corpus_dir": str,
}

SCHEDULES_FIELDS = {
    "explored": int,
    "pruned": int,
    "violations": int,
    "depth_reached": int,
    "truncated": bool,
}

FUZZ_FIELDS = {
    "execs": int,
    "corpus_size": int,
    "corpus_loaded": int,
    "corpus_saved": int,
    "coverage": int,
    "interesting": int,
    "violations": int,
}

COUNTEREXAMPLE_FIELDS = {
    "trace": str,
    "ops": int,
    "shrink_runs": int,
    "views": list,
}


# ------------------------------------------------------------------ replay

REPLAY_FIELDS = {
    "trace": str,
    "ops": int,
    "rounds": int,
    "messages": int,
    "delivered": int,
    "dropped": int,
    "all_properties": bool,
    **CELL_LIVENESS_FIELDS,
    "views": list,
}


def validate_replay(doc):
    """An `explore --replay` / `fuzz --replay` document. Deliberately
    envelope-free: its bytes are a pure function of (scenario, horizon,
    trace), so it carries no git SHA or thread count."""
    errors = []
    for key in doc:
        if key != "replay":
            errors.append(f"top level: unknown field '{key}'")
    rep = doc.get("replay")
    if not isinstance(rep, dict):
        errors.append("top level: 'replay' must be an object")
        return errors
    check_fields(rep, REPLAY_FIELDS, "replay", errors)
    check_liveness(rep, "replay", errors)
    views = rep.get("views", [])
    if isinstance(views, list) and not all(
            isinstance(v, int) and not isinstance(v, bool) for v in views):
        errors.append("replay: views must contain only integers")
    trace = rep.get("trace")
    ops = rep.get("ops")
    if isinstance(trace, str) and isinstance(ops, int):
        op_count = 0 if trace == "" else trace.count(";") + 1
        if op_count != ops:
            errors.append(f"replay: ops {ops} != trace op count {op_count}")
    return errors


def counters_block(doc, schema):
    """The per-schema counters object ('schedules' or 'fuzz')."""
    block = doc.get("fuzz" if schema == "fuzz" else "schedules", {})
    return block if isinstance(block, dict) else {}


def validate_sched(doc, schema):
    errors = []
    counters_key = "fuzz" if schema == "fuzz" else "schedules"
    top = set(ENVELOPE_FIELDS) | {
        "scenario", "options", counters_key, "all_satisfied", "counterexample",
        "metrics"}
    if schema == "explore":
        top.add("threads")
    for key in ("scenario", "options", counters_key, "all_satisfied", "counterexample"):
        if key not in doc:
            errors.append(f"top level: missing field '{key}'")
    for key in doc:
        if key not in top:
            errors.append(f"top level: unknown field '{key}'")
    # The fuzz report is contractually bit-identical across thread counts,
    # so its envelope omits `threads`; explore's keeps it.
    check_envelope(doc, schema, "top level", errors, threads=(schema == "explore"))

    check_fields(doc.get("scenario", {}), SCENARIO_FIELDS, "scenario", errors)
    if schema == "fuzz":
        check_fields(doc.get("options", {}), FUZZ_OPTIONS_FIELDS, "options", errors)
        check_fields(doc.get("fuzz", {}), FUZZ_FIELDS, "fuzz", errors)
    else:
        check_fields(doc.get("options", {}), EXPLORE_OPTIONS_FIELDS, "options", errors)
        check_fields(doc.get("schedules", {}), SCHEDULES_FIELDS, "schedules", errors)

    if not isinstance(doc.get("all_satisfied"), bool):
        errors.append("top level: all_satisfied must be a bool")

    counters = counters_block(doc, schema)
    ran = counters.get("execs" if schema == "fuzz" else "explored")
    if isinstance(ran, int) and ran < 1:
        errors.append(f"{counters_key}: the unperturbed schedule always runs, "
                      "so the run counter must be >= 1")
    violations = counters.get("violations")
    if isinstance(violations, int) and isinstance(doc.get("all_satisfied"), bool):
        if doc["all_satisfied"] != (violations == 0):
            errors.append("top level: all_satisfied must equal (violations == 0)")
    if schema == "fuzz":
        size = counters.get("corpus_size")
        coverage = counters.get("coverage")
        if isinstance(size, int) and isinstance(coverage, int) and 0 < coverage < size:
            errors.append("fuzz: every corpus entry holds at least one coverage "
                          "point, so coverage must be >= corpus_size")

    counterexample = doc.get("counterexample")
    if counterexample is not None:
        check_fields(counterexample, COUNTEREXAMPLE_FIELDS, "counterexample", errors)
        if isinstance(counterexample, dict):
            views = counterexample.get("views", [])
            if isinstance(views, list) and not all(
                    isinstance(v, int) and not isinstance(v, bool) for v in views):
                errors.append("counterexample: views must contain only integers")
            trace = counterexample.get("trace")
            ops = counterexample.get("ops")
            if isinstance(trace, str) and isinstance(ops, int):
                op_count = 0 if trace == "" else trace.count(";") + 1
                if op_count != ops:
                    errors.append(f"counterexample: ops {ops} != trace op count {op_count}")
    if isinstance(doc.get("all_satisfied"), bool) and doc["all_satisfied"] \
            and counterexample is not None:
        errors.append("top level: a satisfied search must not carry a counterexample")
    validate_metrics(doc, errors)
    return errors


# ----------------------------------------------------------------- driver


def detect_schema(doc):
    sub = doc.get("subcommand")
    if sub in ("bench", "sweep", "explore", "fuzz"):
        return sub
    # Replay documents are envelope-free by contract (byte-identical
    # reproduction); any other envelope-free document is told apart by
    # shape only so its envelope errors name the right surface.
    if "replay" in doc:
        return "replay"
    if "tool" in doc:
        return "bench"
    if "fuzz" in doc:
        return "fuzz"
    if "schedules" in doc:
        return "explore"
    return "sweep"


def summarize(doc, schema, path):
    if schema == "bench":
        return (f"OK: {path} [bench]: {len(doc.get('cases', []))} case(s), "
                f"git {doc.get('git_sha')}, ok={doc.get('ok')}")
    if schema == "sweep":
        held = doc.get("all_properties_held")
        if isinstance(doc.get("cells"), list):
            return (f"OK: {path} [sweep]: {doc.get('total_cells')} cell(s), "
                    f"{doc.get('ran')} ran, all_properties_held={held}")
        return (f"OK: {path} [sweep shard {doc.get('shard')}]: "
                f"{doc.get('cells')} cell(s), {doc.get('ran')} ran, "
                f"all_properties_held={held}")
    if schema == "replay":
        rep = doc.get("replay", {})
        return (f"OK: {path} [replay]: {rep.get('ops')} op(s), "
                f"all_properties={rep.get('all_properties')}, "
                f"round_limit_hit={rep.get('round_limit_hit')}")
    counters = counters_block(doc, schema)
    if schema == "fuzz":
        return (f"OK: {path} [fuzz]: {counters.get('execs')} exec(s), "
                f"corpus {counters.get('corpus_size')}, "
                f"coverage {counters.get('coverage')}, "
                f"{counters.get('violations')} violation(s), "
                f"all_satisfied={doc.get('all_satisfied')}")
    return (f"OK: {path} [explore]: {counters.get('explored')} schedule(s) explored, "
            f"{counters.get('pruned')} pruned, {counters.get('violations')} violation(s), "
            f"all_satisfied={doc.get('all_satisfied')}")


# The schemas each verdict flag is defined for. A flag given for any other
# schema fails with a `run verdict:` line rather than being ignored.
VERDICT_SCHEMAS = {
    "--require-ok": ("bench", "sweep", "replay"),
    "--require-cases": ("bench",),
    "--require-no-violations": ("explore", "fuzz", "replay"),
    "--min-execs": ("explore", "fuzz"),
    "--require-metrics": ("sweep", "explore", "fuzz"),
}


def verdict_errors(doc, schema, flags, jsonl):
    """The run verdicts `flags` asks for, on an already-validated document
    (for a JSONL shard document, `doc` is its summary line)."""
    rep = doc.get("replay") if isinstance(doc.get("replay"), dict) else {}
    counters = counters_block(doc, schema)
    errors = []
    for flag, value in flags.items():
        if schema not in VERDICT_SCHEMAS[flag]:
            errors.append(f"run verdict: {flag} does not apply to schema '{schema}'")
        elif flag == "--require-ok":
            field, held = {"bench": ("ok", doc.get("ok")),
                           "sweep": ("all_properties_held", doc.get("all_properties_held")),
                           "replay": ("all_properties", rep.get("all_properties"))}[schema]
            if held is not True:
                errors.append(f"run verdict: {field} is false (--require-ok)")
        elif flag == "--require-cases":
            if len(doc.get("cases", [])) < value:
                errors.append(f"run verdict: only {len(doc.get('cases', []))} cases, "
                              f"need >= {value} (--require-cases)")
        elif flag == "--require-no-violations":
            if schema == "replay":
                if rep.get("round_limit_hit") is not False:
                    errors.append("run verdict: round_limit_hit (--require-no-violations)")
            elif counters.get("violations") != 0:
                errors.append("run verdict: violations != 0 (--require-no-violations)")
        elif flag == "--min-execs":
            ran = counters.get("execs" if schema == "fuzz" else "explored")
            if not isinstance(ran, int) or ran < value:
                errors.append(f"run verdict: ran {ran} schedule(s), "
                              f"need >= {value} (--min-execs)")
        elif jsonl:  # --require-metrics
            # The JSONL stream is contractually recorder-free: metrics land
            # only in the envelope report, never in the shard document.
            errors.append("run verdict: a JSONL shard document never carries "
                          "metrics (--require-metrics)")
        elif not isinstance(doc.get("metrics"), dict):
            errors.append("run verdict: no metrics block — run with --metrics "
                          "or --trace-out (--require-metrics)")
    return errors


def main(argv):
    flags = {}  # verdict flag -> True, or its integer value
    schema = "auto"
    args = []
    it = iter(argv[1:])
    for a in it:
        if a in ("--require-ok", "--require-no-violations", "--require-metrics"):
            flags[a] = True
        elif a in ("--require-cases", "--min-execs"):
            value = next(it, None)
            if value is None or not value.isdigit():
                print(f"{a} needs an integer value", file=sys.stderr)
                return 2
            flags[a] = int(value)
        elif a == "--schema":
            value = next(it, None)
            if value not in ("bench", "sweep", "explore", "fuzz", "replay", "auto"):
                print("--schema must be bench, sweep, explore, fuzz, replay, or auto",
                      file=sys.stderr)
                return 2
            schema = value
        elif a.startswith("--"):
            print(f"unknown flag: {a}", file=sys.stderr)
            return 2
        else:
            args.append(a)
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = args[0]

    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(f"FAIL: {path}: {e}", file=sys.stderr)
        return 1

    # A JSONL shard document is not one JSON value; dispatch on its header.
    jsonl = text.startswith('{"type": "header"')
    if jsonl:
        if schema not in ("sweep", "auto"):
            print(f"FAIL: {path}: a JSONL shard document is schema 'sweep', "
                  f"not '{schema}'", file=sys.stderr)
            return 1
        schema = "sweep"
        errors, doc = validate_sweep_jsonl(text, path)
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            print(f"FAIL: {path}: {e}", file=sys.stderr)
            return 1
        if not isinstance(doc, dict):
            print(f"FAIL: {path}: top level: expected a JSON object", file=sys.stderr)
            return 1
        if schema == "auto":
            schema = detect_schema(doc)
        if schema == "bench":
            errors = validate_bench(doc)
        elif schema == "sweep":
            errors = validate_sweep_json(doc)
        elif schema == "replay":
            errors = validate_replay(doc)
        else:
            errors = validate_sched(doc, schema)
    errors += verdict_errors(doc, schema, flags, jsonl)

    for e in errors:
        print(f"FAIL: {e}", file=sys.stderr)
    if errors:
        return 1
    if jsonl:
        header = json.loads(text.split("\n", 1)[0])
        print(f"OK: {path} [sweep jsonl]: shard {header.get('shard')} of "
              f"{header.get('total_cells')} cell(s), {doc.get('ran')} ran, "
              f"all_properties_held={doc.get('all_properties_held')}, "
              f"git {header.get('git_sha')}")
    else:
        print(summarize(doc, schema, path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

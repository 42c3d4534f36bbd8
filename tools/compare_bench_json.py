#!/usr/bin/env python3
"""Diff two BENCH_results.json files (schema in docs/BENCHMARKS.md).

Usage: compare_bench_json.py BASELINE CURRENT [--markdown] [--threshold PCT]
                             [--fail-above PCT] [--fail-on-digest-change]

Joins cases by name and reports, per case present in both: baseline vs
current median wall time, the delta in percent, and whether the digest
changed (a digest change means the workload's observable output changed —
expected when the case was modified, alarming otherwise). Cases only in one
file are listed as added/removed. With --markdown the table is emitted as
GitHub-flavored markdown (what CI appends to the job summary).

By default this tool is REPORT-ONLY about performance: medians from
different machines, containers, or thread counts are not comparable enough
to gate a merge, so regressions never affect the exit code. --fail-above
PCT opts into a regression threshold: if any case common to both files is
more than PCT percent slower than its baseline median, the exit code is 3
(schema problems still win and exit 1). CI keeps the report-only default
and runs the threshold as a separate advisory step.

Digests are different: they fold what a case computed, not how long it
took, so they do not depend on the machine. --fail-on-digest-change turns
a CHANGED digest on any case common to both files into exit 4, which
gates "every digest unchanged" for refactors (CI runs it on the smoke
slice against the committed BENCH_results.json). Cases whose digest folds
the git SHA (sweep/jsonl_stream, sweep/shard_overhead) always change
between commits; leave them out of a gated comparison. A digest change
outranks a timing regression: with both flags given and both tripped, the
exit code is 4. Exit status:
  0  both files schema-valid, comparison printed
  1  either file fails schema validation
  2  usage error
  3  --fail-above given and at least one case regressed beyond PCT
  4  --fail-on-digest-change given and at least one case's digest changed
"""
import json
import sys

from validate_json import validate_bench as validate

THRESHOLD_DEFAULT = 10.0  # flag deltas beyond +/-10% with a marker


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return None, [f"{path}: {e}"]
    errors = [f"{path}: {e}" for e in validate(doc)]
    return doc, errors


def fmt_ms(v):
    return f"{v:.3f}"


def compare(base, cur, threshold):
    base_cases = {c["name"]: c for c in base.get("cases", [])}
    cur_cases = {c["name"]: c for c in cur.get("cases", [])}

    rows = []
    deltas = {}
    changed = []
    for name in sorted(base_cases.keys() & cur_cases.keys()):
        b, c = base_cases[name], cur_cases[name]
        delta = 0.0
        if b["median_ms"] > 0:
            delta = (c["median_ms"] - b["median_ms"]) / b["median_ms"] * 100.0
        deltas[name] = delta
        marker = ""
        if abs(delta) > threshold:
            marker = "slower" if delta > 0 else "faster"
        digest = "same" if b["digest"] == c["digest"] else "CHANGED"
        if digest == "CHANGED":
            changed.append(name)
        ok = "ok" if c.get("ok") and c.get("deterministic") else "FAIL"
        rows.append((name, fmt_ms(b["median_ms"]), fmt_ms(c["median_ms"]),
                     f"{delta:+.1f}%", marker, digest, ok))
    added = sorted(cur_cases.keys() - base_cases.keys())
    removed = sorted(base_cases.keys() - cur_cases.keys())
    return rows, added, removed, deltas, changed


LIST_CAP = 20  # names listed explicitly before "(+K more)"


def fmt_names(names):
    listed = ", ".join(names[:LIST_CAP])
    more = len(names) - LIST_CAP
    return listed + (f" (+{more} more)" if more > 0 else "")


def render_text(rows, added, removed, base, cur):
    out = [f"baseline git {base.get('git_sha')} ({base.get('threads')} threads) vs "
           f"current git {cur.get('git_sha')} ({cur.get('threads')} threads)"]
    if rows:
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        header = ("case", "base ms", "cur ms", "delta", "", "digest", "verdict")
        widths = [max(w, len(h)) for w, h in zip(widths, header)]
        out.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            out.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    else:
        # A disjoint pair (e.g. a renamed suite vs an old seed) must still
        # say so explicitly — an empty table reads as "nothing to report".
        out.append("no comparable cases: the two files share no case names")
    if added:
        # New bench groups/cases land here: name them all (capped) so a new
        # group is visible in the diff, not silently absorbed.
        out.append(f"added ({len(added)}, no baseline): {fmt_names(added)}")
    if removed:
        # Capped listing: a filtered current run (e.g. CI's smoke slice vs
        # the full-suite seed) would otherwise drown the table in rows.
        out.append(f"baseline-only ({len(removed)}, filtered or removed): "
                   f"{fmt_names(removed)}")
    return "\n".join(out)


def render_markdown(rows, added, removed, base, cur):
    out = ["### Bench regression report",
           "",
           f"Baseline `{base.get('git_sha')}` ({base.get('threads')} threads) vs "
           f"current `{cur.get('git_sha')}` ({cur.get('threads')} threads). "
           "Report-only: medians across machines are indicative, not gating.",
           "",
           "| case | base ms | cur ms | delta | | digest | verdict |",
           "|---|---:|---:|---:|---|---|---|"]
    for r in rows:
        out.append("| " + " | ".join(("`" + r[0] + "`",) + r[1:]) + " |")
    if not rows:
        out.append("| _no comparable cases — the two files share no case names_ "
                   "| | | | | | |")
    if added:
        out.append("")
        out.append(f"**Added cases ({len(added)}, no baseline):** "
                   + fmt_names([f"`{n}`" for n in added]))
    if removed:
        out.append("")
        out.append(f"**Baseline-only cases ({len(removed)}, filtered or removed):** "
                   + fmt_names([f"`{n}`" for n in removed]))
    return "\n".join(out)


def main(argv):
    markdown = False
    threshold = THRESHOLD_DEFAULT
    fail_above = None
    fail_on_digest_change = False
    paths = []
    it = iter(argv[1:])
    for a in it:
        if a == "--markdown":
            markdown = True
        elif a == "--threshold":
            try:
                threshold = float(next(it))
            except (StopIteration, ValueError):
                print("--threshold needs a number", file=sys.stderr)
                return 2
        elif a == "--fail-above":
            try:
                fail_above = float(next(it))
            except (StopIteration, ValueError):
                print("--fail-above needs a number (percent)", file=sys.stderr)
                return 2
        elif a == "--fail-on-digest-change":
            fail_on_digest_change = True
        elif a.startswith("--"):
            print(f"unknown flag: {a}", file=sys.stderr)
            return 2
        else:
            paths.append(a)
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    base, base_errors = load(paths[0])
    cur, cur_errors = load(paths[1])
    for e in base_errors + cur_errors:
        print(f"SCHEMA MISMATCH: {e}", file=sys.stderr)
    if base_errors or cur_errors:
        return 1

    rows, added, removed, deltas, changed = compare(base, cur, threshold)
    render = render_markdown if markdown else render_text
    print(render(rows, added, removed, base, cur))

    if fail_on_digest_change and changed:
        for name in changed:
            print(f"DIGEST CHANGED: {name} (its observable output differs from the baseline)",
                  file=sys.stderr)
        return 4
    if fail_above is not None:
        regressed = sorted((name, d) for name, d in deltas.items() if d > fail_above)
        if regressed:
            for name, d in regressed:
                print(f"REGRESSION: {name} is {d:+.1f}% vs baseline "
                      f"(threshold +{fail_above:.0f}%)", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)

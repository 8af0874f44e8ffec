#!/usr/bin/env python3
"""Gate benchmark JSON files against checked-in baselines.

Each BENCH_<name>.json produced by a bench binary is compared against
bench/baselines/BENCH_<name>.json, which lists gates over dotted metric
paths (array indices as [i]):

    {"path": "fig4_grid.bitwise_equal_to_cold", "equals": true}
        exact equality — a flipped correctness gate fails the build
    {"path": "fig4_grid.speedup", "min": 3.0}            hard floor
    {"path": "fig4_grid.unique_solves", "max": 102}      hard ceiling
    {"path": "min_speedup_1thread", "baseline": 4.5, "tolerance": 0.2}
        regression gate: current >= baseline * (1 - tolerance); pass
        "direction": "lower" for lower-is-better metrics
    {"path": "...", "ratio_of": ["num.path", "den.path"], "baseline": ...}
        same, over a quotient of two metrics (machine-robust speedups)
    {"path": "profiler.overhead_percent", "max": 2.0, "when": "profiler.ran"}
        conditional gate: only checked when the "when" path resolves truthy
        in the *current* blob — skipped (not failed) otherwise. Used for
        rows that depend on the run, e.g. a profiler section that only
        runs when the sampling timer could be armed.

Exit status 0 when every gate in every file passes, 1 otherwise.
"""

import argparse
import json
import re
import sys
from pathlib import Path

_INDEX = re.compile(r"^(.*)\[(\d+)\]$")


def lookup(blob, path):
    """Resolve a dotted path with optional [i] array indices."""
    value = blob
    for part in path.split("."):
        match = _INDEX.match(part)
        if match:
            value = value[match.group(1)][int(match.group(2))]
        else:
            value = value[part]
    return value


def fmt_value(value):
    """Compact cell rendering: short floats, bare bools, repr for the rest."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def check_gate(blob, gate):
    """Return (passed, message, measured, constraint) for one gate."""
    if "ratio_of" in gate:
        num_path, den_path = gate["ratio_of"]
        current = lookup(blob, num_path) / lookup(blob, den_path)
        label = f"{num_path} / {den_path}"
    else:
        current = lookup(blob, gate["path"])
        label = gate["path"]

    if "equals" in gate:
        expected = gate["equals"]
        ok = current == expected
        return (ok, f"{label} == {expected!r} (got {current!r})",
                current, f"== {fmt_value(expected)}")
    if "min" in gate:
        ok = current >= gate["min"]
        return (ok, f"{label} >= {gate['min']} (got {current})",
                current, f">= {fmt_value(gate['min'])}")
    if "max" in gate:
        ok = current <= gate["max"]
        return (ok, f"{label} <= {gate['max']} (got {current})",
                current, f"<= {fmt_value(gate['max'])}")
    if "baseline" in gate:
        baseline = gate["baseline"]
        tolerance = gate.get("tolerance", 0.2)
        if gate.get("direction", "higher") == "lower":
            bound = baseline * (1.0 + tolerance)
            ok = current <= bound
            return (ok, (f"{label} <= {bound:g} "
                         f"(baseline {baseline:g} +{tolerance:.0%}, got {current})"),
                    current, f"<= {bound:g} (base {baseline:g})")
        bound = baseline * (1.0 - tolerance)
        ok = current >= bound
        return (ok, (f"{label} >= {bound:g} "
                     f"(baseline {baseline:g} -{tolerance:.0%}, got {current})"),
                current, f">= {bound:g} (base {baseline:g})")
    raise ValueError(f"gate has no comparison: {gate}")


def gate_label(gate):
    if "path" in gate:
        return gate["path"]
    if "ratio_of" in gate:
        return " / ".join(gate["ratio_of"])
    return str(gate)


def render_table(rows):
    """Aligned per-gate summary: gate, measured, constraint, verdict."""
    header = ("gate", "measured", "constraint", "verdict")
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in (header, tuple("-" * w for w in widths)) + tuple(rows):
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())
    return "\n".join(lines)


def compare(current_path, baseline_path):
    """Check every gate; returns (all_passed, summary_rows)."""
    with open(current_path) as f:
        blob = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)
    if blob.get("bench") != baseline.get("bench"):
        print(f"FAIL {current_path}: bench name {blob.get('bench')!r} "
              f"!= baseline {baseline.get('bench')!r}")
        return False, [(str(current_path), "-", "bench name match", "FAIL")]

    failures = 0
    rows = []
    for gate in baseline["gates"]:
        if "when" in gate:
            try:
                condition = lookup(blob, gate["when"])
            except (KeyError, IndexError, TypeError):
                condition = False
            if not condition:
                print(f"  skip {gate.get('path', gate)} "
                      f"(condition {gate['when']!r} not met)")
                rows.append((gate_label(gate), "-",
                             f"when {gate['when']}", "skip"))
                continue
        try:
            ok, message, measured, constraint = check_gate(blob, gate)
        except (KeyError, IndexError, TypeError) as error:
            ok, message = False, f"{gate.get('path', gate)}: unresolvable ({error!r})"
            measured, constraint = None, "unresolvable"
        status = "ok  " if ok else "FAIL"
        print(f"  {status} {message}")
        rows.append((gate_label(gate), fmt_value(measured), constraint,
                     "pass" if ok else "FAIL"))
        failures += 0 if ok else 1
    verdict = "pass" if failures == 0 else f"{failures} gate(s) failed"
    print(f"{current_path}: {verdict}")
    return failures == 0, rows


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory holding baseline BENCH_*.json files")
    parser.add_argument("current", nargs="+",
                        help="benchmark JSON files produced by this run")
    args = parser.parse_args(argv)

    all_ok = True
    summaries = []
    for current in args.current:
        baseline = Path(args.baseline_dir) / Path(current).name
        if not baseline.exists():
            print(f"FAIL {current}: no baseline at {baseline}")
            all_ok = False
            summaries.append((current, [(str(current), "-",
                                         f"baseline at {baseline}", "FAIL")]))
            continue
        print(f"== {current} vs {baseline}")
        ok, rows = compare(current, baseline)
        all_ok &= ok
        summaries.append((current, rows))

    # Per-gate summary table on every run — pass or fail — so a CI log (or a
    # human skimming one) shows each gate's measured value and margin at a
    # glance without scrolling through the per-file checks.
    print("\n== summary")
    for current, rows in summaries:
        print(f"-- {current}")
        print(render_table(rows))
    print(f"overall: {'pass' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Compare two sets of benchmark results: parent commit (A) vs change (B).

    python3 benchmarks/e2e/compare.py A1.json [A2.json ...] -- B1.json [B2.json ...]

Each (workload, end-to-end metric) row shows both sides' median and
quartiles, the fraction of (A_i, B_i) pairs the change wins, and a
verdict under the rule of the repository's measurement method:

* ``improved`` — B wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ, in B's favour, by more than A's own
  interquartile range;
* ``regressed`` — B's median is worse than A's by more than the
  metric's bound in BENCHMARK.json, and the spread of both sides is
  within the bound (or every B run is worse than every A run);
* ``unresolved`` — the run-to-run spread is wider than the bound, and
  B is not better than A on every run;
* ``no worse`` — otherwise.

Output digests that differ between the sides are reported as output
changes.  Exit status: 0, 1 when any row regressed, 2 when the files
cannot be compared (different seeds or benchmark versions).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
IMPROVED, NO_WORSE, REGRESSED, UNRESOLVED = "improved", "no worse", "regressed", "unresolved"
WIN_SHARE = 0.9


class Refusal(Exception):
    """The inputs cannot be compared; carries a one-line reason."""


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list, b: list, better: str, bound: float) -> dict:
    """One row of the comparison for the paired samples ``a`` and ``b``."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    worse = sign * (a_median - b_median) / abs(a_median) if a_median else 0.0
    spread = max(
        (a_q3 - a_q1) / abs(a_median) if a_median else 0.0,
        (b_q3 - b_q1) / abs(b_median) if b_median else 0.0,
    )
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    all_worse = all(sign * (x - y) > 0 for x in a for y in b)
    if (
        pairs
        and wins >= WIN_SHARE * len(pairs)
        and sign * (b_median - a_median) > (a_q3 - a_q1)
    ):
        result = IMPROVED
    elif worse > bound and (spread <= bound or all_worse):
        result = REGRESSED
    elif spread > bound and not all_better:
        result = UNRESOLVED
    else:
        result = NO_WORSE
    return {
        "a": (a_median, a_q1, a_q3),
        "b": (b_median, b_q1, b_q3),
        "change": (b_median - a_median) / abs(a_median) if a_median else 0.0,
        "wins": wins / len(pairs) if pairs else 0.0,
        "verdict": result,
    }


def load(paths: list) -> tuple[dict, list]:
    """Untraced result entries per workload, and each file's header."""
    entries: dict = {}
    headers = []
    for path in paths:
        try:
            document = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise Refusal(f"cannot read {path}: {error}") from None
        if document.get("benchmark") != "repro-e2e":
            raise Refusal(f"{path} is not a repro-e2e benchmark result")
        headers.append((path, document.get("seed"), document.get("benchmark_version")))
        for entry in document.get("results", []):
            if not entry.get("trace"):
                entries.setdefault(entry["workload"], []).append(entry)
    return entries, headers


def compare(a_paths: list, b_paths: list, declared: dict) -> tuple[list, list]:
    """Rows of the comparison, and the notes (output changes, failures)."""
    a_entries, a_headers = load(a_paths)
    b_entries, b_headers = load(b_paths)
    headers = a_headers + b_headers
    for key, label in ((1, "seeds"), (2, "benchmark versions")):
        if len({header[key] for header in headers}) > 1:
            detail = ", ".join(f"{Path(h[0]).name}={h[key]}" for h in headers)
            raise Refusal(f"cannot compare results with different {label}: {detail}")
    rows, notes = [], []
    for workload in [w["name"] for w in declared["workloads"]]:
        a, b = a_entries.get(workload, []), b_entries.get(workload, [])
        if not a or not b:
            notes.append(f"{workload}: missing on side {'A' if not a else 'B'}")
            continue
        for side, entries in (("A", a), ("B", b)):
            failed = sum(entry["failed"] for entry in entries)
            if failed or not all(entry["correct"] for entry in entries):
                notes.append(f"{workload}: side {side} has {failed} failed rounds")
        a_digests, b_digests = a[0].get("digests", {}), b[0].get("digests", {})
        for label in sorted(set(a_digests) | set(b_digests)):
            if a_digests.get(label) != b_digests.get(label):
                notes.append(f"{workload}: output changed for run {label}")
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a_values = [e["metrics"][name]["value"] for e in a if name in e["metrics"]]
            b_values = [e["metrics"][name]["value"] for e in b if name in e["metrics"]]
            if not a_values or not b_values:
                notes.append(f"{workload}: {name} missing")
                continue
            row = verdict(a_values, b_values, metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
    return rows, notes


def render(rows: list, notes: list) -> str:
    lines = [
        f"{'workload':<14} {'metric':<15} {'A median [q1, q3]':>32} "
        f"{'B median [q1, q3]':>32} {'change':>8} {'wins':>5} verdict"
    ]
    for row in rows:
        a = "{:.5g} [{:.5g}, {:.5g}]".format(*row["a"])
        b = "{:.5g} [{:.5g}, {:.5g}]".format(*row["b"])
        lines.append(
            f"{row['workload']:<14} {row['metric']:<15} {a:>32} {b:>32} "
            f"{row['change']:>+8.2%} {row['wins']:>5.0%} {row['verdict']}"
            f" (bound {row['bound']:.0%})"
        )
    lines.extend(f"note: {note}" for note in notes)
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv or argv.index("--") in (0, len(argv) - 1):
        print("usage: compare.py A.json [A.json ...] -- B.json [B.json ...]", file=sys.stderr)
        return 2
    split = argv.index("--")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        rows, notes = compare(argv[:split], argv[split + 1 :], declared)
    except Refusal as refusal:
        print(f"error: {refusal}", file=sys.stderr)
        return 2
    print(render(rows, notes))
    return 1 if any(row["verdict"] == REGRESSED for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

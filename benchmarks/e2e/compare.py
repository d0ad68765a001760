"""A/B verdicts from benchmark runs: does B differ from A, and how?

    python3 benchmarks/e2e/compare.py A/*.json B/*.json

Arguments are ``run.py --out`` files; the files of A and of B each sit in
one directory (A is the directory of the first file).  Runs pair up by
workload and seed.  For every workload and end-to-end metric the tool
prints A's and B's median with quartiles, the change, how many pairs B
won, and a verdict:

``worse``
    B's median is worse than A's by more than the metric's bound in
    ``BENCHMARK.json``.
``better``
    B wins at least 9 of 10 pairs (ties count for neither side) and the
    medians differ by more than A's interquartile range.
``unresolved``
    the run-to-run spread of A or B is wider than the bound, and B does
    not read better than A on every run.
``unchanged``
    none of the above.

The simulated metrics and result digests, which a change that keeps the
program's semantics must leave identical, are compared for equality per
seed, and ``fig1-skew`` must agree with ``fig1-skew-2proc``.  The exit
status is 1 if any row is ``worse`` or any exact comparison differs.

``--baseline FILE`` also writes A's and B's medians and quartiles, with
the machine they ran on, to ``FILE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: share of pairs B must win before a gain is claimed
WIN_SHARE = 0.9


def load_runs(paths) -> dict:
    """``{(workload, seed): untraced run}`` from ``run.py --out`` files."""
    runs = {}
    machine = None
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        machine = doc.get("machine", machine)
        for record in doc["runs"]:
            if "untraced" in record:
                runs[(record["workload"], record["seed"])] = record["untraced"]
    return {"runs": runs, "machine": machine}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a: list[float], b: list[float], pairs, better: str, bound: float) -> dict:
    """One row: A and B summaries, the change and its verdict."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    spread = max(
        (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0,
        (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0,
    )
    if -sign * change > bound:
        word = "worse"
    elif (
        pairs and wins >= WIN_SHARE * len(pairs)
        and sign * (qb[1] - qa[1]) > qa[2] - qa[0]
    ):
        word = "better"
    elif spread > bound and not all_better:
        word = "unresolved"
    else:
        word = "unchanged"
    return {"a": qa, "b": qb, "change": change, "wins": wins,
            "pairs": len(pairs), "spread": spread, "verdict": word}


def _exact_mismatches(a_runs: dict, b_runs: dict) -> list[str]:
    """Digests and simulated metrics that differ for the same seed."""
    problems = []
    for side, runs in (("A", a_runs), ("B", b_runs)):
        for (workload, seed), run in runs.items():
            twin = runs.get(("fig1-skew", seed))
            if workload == "fig1-skew-2proc" and twin is not None:
                if twin["digest"] != run["digest"]:
                    problems.append(f"{side} seed {seed}: fig1-skew-2proc digest "
                                    "differs from fig1-skew")
    for key in sorted(set(a_runs) & set(b_runs)):
        ra, rb = a_runs[key], b_runs[key]
        if ra["digest"] != rb["digest"]:
            problems.append(f"{key[0]} seed {key[1]}: digest differs")
        for name, value in ra["sim"].items():
            if rb["sim"].get(name) != value:
                problems.append(f"{key[0]} seed {key[1]}: {name} "
                                f"{value!r} != {rb['sim'].get(name)!r}")
    return problems


def compare(a: dict, b: dict, spec: dict) -> tuple[list[tuple], list[str]]:
    a_runs, b_runs = a["runs"], b["runs"]
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        seeds_a = sorted(s for w, s in a_runs if w == workload)
        seeds_b = sorted(s for w, s in b_runs if w == workload)
        if not seeds_a or not seeds_b:
            continue
        common = [s for s in seeds_a if s in seeds_b]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [a_runs[(workload, s)][name] for s in seeds_a]
            vb = [b_runs[(workload, s)][name] for s in seeds_b]
            pairs = [(a_runs[(workload, s)][name], b_runs[(workload, s)][name])
                     for s in common]
            rows.append((workload, metric, verdict(
                va, vb, pairs, metric["better"], metric["bound"])))
    return rows, _exact_mismatches(a_runs, b_runs)


def summary(side: dict, spec: dict) -> dict:
    """Median and quartiles per workload and metric, with the machine."""
    out = {"machine": side["machine"], "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [r for (w, _), r in sorted(side["runs"].items()) if w == workload]
        if not runs:
            continue
        metrics = {}
        for metric in spec["end_to_end"]:
            q1, med, q3 = quartiles([r[metric["name"]] for r in runs])
            metrics[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                       "unit": metric["unit"]}
        out["workloads"][workload] = {
            "runs": len(runs),
            "seeds": sorted(s for (w, s) in side["runs"] if w == workload),
            "shards": runs[0]["shards"],
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="write both sides' medians and quartiles here")
    opts = parser.parse_args(argv)
    dirs = []
    for path in opts.files:
        if path.parent not in dirs:
            dirs.append(path.parent)
    if len(dirs) != 2:
        parser.error("give the runs of A and of B from two directories")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    a = load_runs([p for p in opts.files if p.parent == dirs[0]])
    b = load_runs([p for p in opts.files if p.parent == dirs[1]])
    rows, mismatches = compare(a, b, spec)
    def cell(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    print(f"A = {dirs[0]}  B = {dirs[1]}")
    print(f"{'workload':<16} {'metric':<12} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'change':>7} {'wins':>6}  verdict")
    for workload, metric, row in rows:
        print(f"{workload:<16} {metric['name']:<12} {cell(row['a']):<32} "
              f"{cell(row['b']):<32} {row['change']:>+7.1%} "
              f"{row['wins']:>2}/{row['pairs']:<3}  {row['verdict']}")
    for problem in mismatches:
        print(f"EXACT MISMATCH: {problem}")
    if not mismatches:
        print("exact: digests and simulated metrics identical for every seed")
    if opts.baseline is not None:
        with open(opts.baseline, "w", encoding="utf-8") as fh:
            json.dump({"A": summary(a, spec), "B": summary(b, spec)},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    worse = any(row["verdict"] == "worse" for _, _, row in rows)
    return 1 if worse or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

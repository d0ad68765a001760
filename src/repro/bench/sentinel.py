"""Perf-regression sentinel (``python -m repro bench --sentinel``).

The ``--check`` baseline protocol compares one fresh run against one
committed snapshot.  The sentinel generalises it into a *trajectory*: a
committed history file (``BENCH_trajectory.json``) accumulates one entry
per clean sentinel run, and every new run is judged against that history:

- **deterministic simulated metrics** (``total_processed``,
  ``total_results``, ``migrations``, ``latency_p50``/``p99``,
  ``mean_throughput``) must match the most recent history entry for the
  same case *exactly* (floats to relative 1e-9) — they are a pure function
  of ``(config, seed)``, so any drift is a semantics change;
- **wall-clock throughput** (``tuples_per_sec``) is machine-dependent and
  noisy, so it is compared *statistically*: against the median of the last
  ``window`` serially-measured history entries for the case, with the same
  relative tolerance band ``--check`` uses.  Runs measured with
  ``jobs > 1`` (workers share cores) and runs on a different machine than
  the history only *warn* on wall regressions.

A regression exits non-zero and leaves the history untouched; a clean run
appends a new trajectory entry (seq, UTC timestamp, machine metadata, the
full per-case numbers) so the committed file records the repo's measured
perf trajectory over time.  With an empty history the first run seeds the
trajectory, optionally cross-checking deterministic metrics against the
committed ``--check`` baseline.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from .perf import DEFAULT_TOLERANCE, _EXACT_FIELDS, _FLOAT_FIELDS

__all__ = [
    "DEFAULT_WINDOW",
    "SentinelResult",
    "load_history",
    "check_sentinel",
    "append_entry",
    "write_history",
]

#: serially-measured history entries folded into the wall-clock median
DEFAULT_WINDOW = 5

_SCHEMA = 1


@dataclass
class SentinelResult:
    """Outcome of one sentinel check; ``entry`` is ready to append."""

    failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    entry: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def load_history(path: str) -> dict:
    """Read a trajectory history; a missing file is an empty history."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            history = json.load(fh)
    except FileNotFoundError:
        return {"schema": _SCHEMA, "entries": []}
    if not isinstance(history, dict) or "entries" not in history:
        raise ValueError(f"{path}: not a trajectory history file")
    if history.get("schema") != _SCHEMA:
        raise ValueError(
            f"{path}: unsupported trajectory schema {history.get('schema')!r}"
        )
    return history


def _float_same(a: float, b: float) -> bool:
    return (a == b) or (np.isnan(a) and np.isnan(b)) or (
        b != 0 and abs(a - b) / abs(b) < 1e-9
    )


def _latest_case(entries: list[dict], name: str) -> dict | None:
    """The most recent history record of ``name`` (deterministic anchor)."""
    for entry in reversed(entries):
        for case in entry.get("cases", []):
            if case["name"] == name:
                return case
    return None


def _wall_samples(entries: list[dict], name: str, window: int) -> list[float]:
    """Up to ``window`` most recent *serial* wall rates for ``name``.

    Entries measured with ``jobs > 1`` are excluded: their workers shared
    cores, so their wall numbers are not comparable to a serial run's.
    """
    samples: list[float] = []
    for entry in reversed(entries):
        if int(entry.get("jobs", 1)) != 1:
            continue
        for case in entry.get("cases", []):
            if case["name"] == name:
                samples.append(float(case["tuples_per_sec"]))
                break
        if len(samples) >= window:
            break
    return samples


def _check_deterministic(
    name: str, case: dict, anchor: dict, origin: str, failures: list[str]
) -> None:
    for fld in _EXACT_FIELDS:
        if case[fld] != anchor[fld]:
            failures.append(
                f"{name}: deterministic metric {fld} drifted "
                f"({case[fld]} != {origin} {anchor[fld]}); the engine's "
                "semantics changed — fix it, or refresh the trajectory "
                "deliberately and say so in the PR"
            )
    for fld in _FLOAT_FIELDS:
        a, b = float(case[fld]), float(anchor[fld])
        if not _float_same(a, b):
            failures.append(
                f"{name}: deterministic metric {fld} drifted "
                f"({a!r} != {origin} {b!r})"
            )


def check_sentinel(
    report: dict,
    history: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    window: int = DEFAULT_WINDOW,
    jobs: int | None = None,
    baseline: dict | None = None,
) -> SentinelResult:
    """Judge a fresh bench report against the trajectory history.

    ``jobs`` defaults to the report's own recorded worker count.
    ``baseline`` (a ``--check`` style report) optionally anchors the
    deterministic comparison when the history is still empty.
    """
    result = SentinelResult()
    entries = history.get("entries", [])
    fresh_jobs = int(jobs) if jobs is not None else int(report.get("jobs", 1))

    base_by_name = {c["name"]: c for c in (baseline or {}).get("cases", [])}
    latest_machine = (
        entries[-1].get("machine", {}).get("platform") if entries else None
    )
    same_machine = (
        latest_machine is None
        or latest_machine == report.get("machine", {}).get("platform")
    )
    if not same_machine:
        result.warnings.append(
            "history was recorded on a different machine "
            f"({latest_machine!r}); wall-clock bands demoted to warnings"
        )

    for case in report.get("cases", []):
        name = case["name"]
        anchor = _latest_case(entries, name)
        origin = "trajectory"
        if anchor is None and name in base_by_name:
            anchor, origin = base_by_name[name], "baseline"
        if anchor is None:
            result.lines.append(f"{name}: no history yet; seeding trajectory")
            continue
        _check_deterministic(name, case, anchor, origin, result.failures)

        samples = _wall_samples(entries, name, window)
        if not samples:
            result.lines.append(
                f"{name}: deterministic vs {origin} ok; no serial wall "
                "history yet"
            )
            continue
        anchor_rate = median(samples)
        rate = float(case["tuples_per_sec"])
        ratio = rate / anchor_rate if anchor_rate else float("inf")
        verdict = "ok"
        if ratio < 1.0 - tolerance:
            message = (
                f"{name}: {rate:,.0f} tuples/s is "
                f"{(1.0 - ratio) * 100:.1f}% below the trajectory median "
                f"{anchor_rate:,.0f} over {len(samples)} run(s) "
                f"(tolerance {tolerance * 100:.0f}%)"
            )
            if fresh_jobs > 1:
                verdict = "ok (wall not checked, jobs > 1)"
                result.warnings.append(
                    message + " — ignored: measured with jobs="
                    f"{fresh_jobs}, wall history is serial"
                )
            elif not same_machine:
                verdict = "ok (wall not checked, machine changed)"
                result.warnings.append(message + " — ignored: machine changed")
            else:
                verdict = "REGRESSION"
                result.failures.append(message)
        result.lines.append(
            f"{name}: {rate:,.0f} vs trajectory median {anchor_rate:,.0f} "
            f"tuples/s ({ratio - 1.0:+.1%}, n={len(samples)}) {verdict}"
        )

    next_seq = (
        max((int(e.get("seq", 0)) for e in entries), default=0) + 1
    )
    result.entry = {
        "seq": next_seq,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": bool(report.get("quick", False)),
        "jobs": fresh_jobs,
        "repeats": int(report.get("repeats", 1)),
        "machine": report.get("machine", {}),
        "cases": report.get("cases", []),
    }
    return result


def append_entry(history: dict, entry: dict) -> dict:
    """Append a trajectory entry in place (and return the history)."""
    history.setdefault("schema", _SCHEMA)
    history.setdefault("entries", []).append(entry)
    return history


def write_history(history: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")

"""Reproducible hot-path performance benchmark (``python -m repro bench``).

The paper's headline claims are throughput numbers (Figs. 1, 3-8), so the
reproduction needs a measured perf trajectory of its own: this module runs
a fixed matrix of (system x skew x instances) workloads, measures the
*wall-clock* tuple-processing rate of the simulation engine, and writes
``BENCH_hotpath.json`` next to the repo root.  A committed copy of that
file is the baseline; re-running with ``--check`` compares the fresh run
against it with a tolerance band, so later PRs cannot silently regress the
hot path (the same protocol Metwally's equi-join work and Fang et al. use:
batched redistribution is evaluated by measured throughput, not argument).

Two kinds of numbers live in a report, with different comparison rules:

- **wall-clock metrics** (``tuples_per_sec``, ``wall_seconds``) are machine
  dependent and noisy; they are compared against the baseline with a
  relative tolerance band (default 20% below baseline fails).
- **simulated metrics** (``total_results``, ``total_processed``,
  ``migrations``, ``latency_p50``/``p99``) are a pure function of
  ``(config, seed)``; they must match the baseline *exactly*.  A mismatch
  means the engine's semantics changed — refresh the baseline deliberately
  (``python -m repro bench --update-baseline``) and say so in the PR, or
  fix the regression.

The matrix labels follow the paper: ``fig1`` is the skewed ride-hailing
workload of Fig. 1 (the headline skew demonstration), ``G00``/``G12`` are
the synthetic uniform/Zipf groups of Figs. 12-13.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..config import SystemConfig
from ..parallel import resolve_jobs, run_tasks
from ..systems import build_system
from .experiments import canonical_config, canonical_workload_spec, ridehailing_sources

__all__ = [
    "BenchCase",
    "CaseResult",
    "BENCH_CASES",
    "DEFAULT_TOLERANCE",
    "DEFAULT_REPEATS",
    "bench_cases",
    "run_case",
    "run_matrix",
    "run_profile",
    "machine_metadata",
    "compare_reports",
    "format_report",
    "write_report",
    "load_report",
]

#: relative wall-clock slowdown vs baseline that fails a --check run
DEFAULT_TOLERANCE = 0.20


@dataclass(frozen=True)
class BenchCase:
    """One cell of the benchmark matrix.

    ``quick`` marks the cases the CI perf-smoke job runs; quick cases use
    the *same* configuration as the full run, so their numbers are directly
    comparable against the committed baseline.
    """

    name: str
    system: str
    workload: str  # "ridehailing" or a Gxy synthetic group label
    n_instances: int
    duration: float
    rate: float
    seed: int = 0
    quick: bool = False
    elastic_spec: str | None = None  # scale mid-run (see repro.elastic)
    shards: int = 1                  # service-phase worker processes

    def config(self) -> SystemConfig:
        theta = 2.2 if self.system == "fastjoin" else None
        overrides: dict = {}
        if self.elastic_spec is not None:
            # Elastic drains move count-level state, which windowed
            # stores cannot absorb (same restriction as fault cells).
            overrides.update(
                elastic_spec=self.elastic_spec, window_subwindows=None
            )
        return canonical_config(
            n_instances=self.n_instances, theta=theta, seed=self.seed,
            warmup=2.0, **overrides,
        )


#: the fixed (system x skew x instances) matrix.  Offered rates are far
#: above the instances' service capacity on purpose: backpressure then
#: keeps every queue saturated, so the measured tuples/sec is the engine's
#: service rate (the hot path under test), not the workload generator's.
BENCH_CASES: tuple[BenchCase, ...] = (
    # Fig. 1 headline: the skewed ride-hailing workload, canonical scale.
    BenchCase("fig1-skew/bistream/16", "bistream", "ridehailing", 16, 10.0, 96_000.0, quick=True),
    BenchCase("fig1-skew/fastjoin/16", "fastjoin", "ridehailing", 16, 10.0, 96_000.0, quick=True),
    BenchCase("fig1-skew/contrand/16", "contrand", "ridehailing", 16, 10.0, 96_000.0),
    # Instance-count scaling (Fig. 5/6 shape).
    BenchCase("fig1-skew/bistream/8", "bistream", "ridehailing", 8, 10.0, 48_000.0),
    BenchCase("fig1-skew/fastjoin/8", "fastjoin", "ridehailing", 8, 10.0, 48_000.0),
    # Synthetic skew groups (Fig. 12/13): uniform and Zipf.
    BenchCase("G00-uniform/bistream/8", "bistream", "G00", 8, 10.0, 48_000.0),
    BenchCase("G12-zipf/bistream/8", "bistream", "G12", 8, 10.0, 48_000.0),
    BenchCase("G12-zipf/fastjoin/8", "fastjoin", "G12", 8, 10.0, 48_000.0, quick=True),
    BenchCase("G12-zipf/contrand/8", "contrand", "G12", 8, 10.0, 48_000.0),
    # Elasticity: a full scale-out/scale-in cycle and a reactive rule,
    # so controller overhead and drain cost sit on the measured hot path.
    BenchCase("elastic-cycle/fastjoin/8", "fastjoin", "G12", 8, 10.0, 48_000.0,
              elastic_spec="at:t=3+2;at:t=7-2"),
    BenchCase("elastic-rules/fastjoin/8", "fastjoin", "ridehailing", 8, 10.0, 48_000.0,
              elastic_spec="scaleout:+2@LI>2.5/hold=1.0"),
    # Sharded execution (repro.engine.shard): the Fig. 1 cells again at 4
    # worker processes.  Deterministic metrics are bit-identical to the
    # serial cells above by construction; the tuples/sec gap between the
    # x4shards cell and its serial twin is the measured scaling curve the
    # sentinel trajectory tracks.  (1-core machines demote to serial with
    # a warning — see repro.engine.shard.effective_shards.)
    BenchCase("fig1-skew/fastjoin/16x4shards", "fastjoin", "ridehailing", 16, 10.0, 96_000.0, quick=True, shards=4),
    BenchCase("fig1-skew/bistream/16x4shards", "bistream", "ridehailing", 16, 10.0, 96_000.0, quick=True, shards=4),
)

#: wall-clock repeats per case; the report keeps the best (see run_case)
DEFAULT_REPEATS = 3


def bench_cases(quick: bool = False) -> tuple[BenchCase, ...]:
    """The benchmark matrix; ``quick`` selects the CI smoke subset."""
    if quick:
        return tuple(c for c in BENCH_CASES if c.quick)
    return BENCH_CASES


@dataclass
class CaseResult:
    """Measured numbers for one matrix cell."""

    name: str
    # wall-clock (machine-dependent, tolerance-compared)
    wall_seconds: float
    tuples_per_sec: float
    # simulated (deterministic, exact-compared)
    total_processed: int
    total_results: int
    migrations: int
    latency_p50: float
    latency_p99: float
    mean_throughput: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_seconds": round(self.wall_seconds, 4),
            "tuples_per_sec": round(self.tuples_per_sec, 1),
            "total_processed": self.total_processed,
            "total_results": self.total_results,
            "migrations": self.migrations,
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "mean_throughput": round(self.mean_throughput, 3),
        }


def _build_runtime(case: BenchCase):
    config = case.config()
    if case.workload == "ridehailing":
        spec = canonical_workload_spec(rate=case.rate)
        orders, tracks = ridehailing_sources(spec, config.seed, unbounded=True)
        runtime = build_system(case.system, config, orders, tracks)
    else:
        from ..data.synthetic import SyntheticGroupSpec, make_group_sources
        from ..engine.rng import SeedSequenceFactory

        spec = SyntheticGroupSpec(
            case.workload, n_keys=1_000, tuples_per_stream=10**9, rate=case.rate
        )
        seeds = SeedSequenceFactory(config.seed)
        r_source, s_source = make_group_sources(spec, seeds)
        r_source.total = None
        s_source.total = None
        runtime = build_system(case.system, config, r_source, s_source)
    if case.shards > 1:
        from ..engine.shard import ShardCoordinator, effective_shards

        shards, warning = effective_shards(case.shards)
        if warning is not None:
            # 1-core demotion: the cell still runs (serially, bit-identical
            # deterministic metrics) instead of failing the bench.
            print(f"warning: {case.name}: {warning}", file=sys.stderr)
        if shards > 1:
            runtime.attach_sharding(ShardCoordinator(shards))
    return runtime


def run_case(case: BenchCase, repeats: int = DEFAULT_REPEATS) -> CaseResult:
    """Run one matrix cell and measure the engine's wall-clock rate.

    The timer wraps only ``runtime.run`` — workload generation and system
    wiring are excluded, so ``tuples_per_sec`` is the hot path's rate.

    The run repeats ``repeats`` times and reports the best (minimum) wall
    time: a single-threaded deterministic simulation has a true cost floor,
    and the minimum over a few runs is the standard way to estimate it on a
    machine with background load (mean/median fold scheduler noise into the
    number).  The simulated metrics are a pure function of (config, seed),
    so every repeat produces the same ones — the last run's are reported.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    wall = float("inf")
    metrics = None
    for _ in range(repeats):
        runtime = _build_runtime(case)
        t0 = time.perf_counter()
        metrics = runtime.run(duration=case.duration, drain=False, max_duration=240.0)
        wall = min(wall, time.perf_counter() - t0)
    return CaseResult(
        name=case.name,
        wall_seconds=wall,
        tuples_per_sec=metrics.total_processed / wall if wall > 0 else float("inf"),
        total_processed=metrics.total_processed,
        total_results=metrics.total_results,
        migrations=len(metrics.migrations),
        latency_p50=metrics.latency_p50,
        latency_p99=metrics.latency_p99,
        mean_throughput=metrics.mean_throughput,
    )


def run_profile(
    quick: bool = False,
    cases: tuple[BenchCase, ...] | None = None,
    alloc: bool = True,
    progress=None,
    shards: int | None = None,
) -> dict:
    """Profile the matrix cells: per-phase wall/work/alloc attribution.

    Each cell runs once with a :class:`~repro.obs.profile.PhaseProfiler`
    attached (allocation tracking on by default, so tracemalloc is live —
    the wall numbers here are *not* comparable to ``run_matrix`` output
    and never land in a baseline).  Returns ``{case_name: phase_report}``
    where ``phase_report`` is :meth:`PhaseProfiler.report` plus the
    profiler itself under ``"_profiler"`` for table printing.
    """
    from ..obs import Observability
    from ..obs.profile import PhaseProfiler

    matrix = bench_cases(quick) if cases is None else tuple(cases)
    if shards is not None and shards != 1:
        matrix = tuple(replace(case, shards=shards) for case in matrix)
    out: dict = {}
    for case in matrix:
        if progress is not None:
            progress(case)
        runtime = _build_runtime(case)
        profiler = PhaseProfiler(track_alloc=alloc)
        runtime.attach_observer(
            Observability(profiler=profiler),
            meta={"bench_case": case.name},
        )
        runtime.run(duration=case.duration, drain=False, max_duration=240.0)
        out[case.name] = {"phases": profiler.report(), "_profiler": profiler}
    return out


def machine_metadata(shards: int | None = None) -> dict:
    """Context a baseline number is meaningless without: the host, the
    kernel path (:func:`repro.engine.ckernels.describe`) and the shard
    count a ``shards`` request runs with on this host."""
    from ..engine import ckernels
    from ..engine.shard import effective_shards

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "cpu_count": os.cpu_count() or 1,
        **ckernels.describe(),
        "shards": effective_shards(shards)[0],
    }


@dataclass(frozen=True)
class _RepeatTask:
    """One (cell, repeat) unit of the fanned-out matrix.

    Repeats are independent runs of the same pure ``(config, seed)``
    function, so they parallelise exactly like distinct cells do; the
    parent folds them back per cell (min wall, identical simulated
    metrics).
    """

    case: BenchCase
    repeat: int

    @property
    def name(self) -> str:  # error/progress label for the pool
        return f"{self.case.name}#r{self.repeat}"

    @property
    def seed(self) -> int:
        return self.case.seed


def _run_repeat(task: _RepeatTask) -> CaseResult:
    """Pool worker: one wall-clock repeat of one cell (spawn-safe)."""
    return run_case(task.case, repeats=1)


def _merge_repeats(case: BenchCase, repeats: list[CaseResult]) -> CaseResult:
    """Fold per-repeat results into the cell's reported numbers.

    Matches the serial protocol bit-for-bit: minimum wall time across
    repeats, simulated metrics from the run (identical in every repeat —
    they are a pure function of ``(config, seed)``).
    """
    wall = min(r.wall_seconds for r in repeats)
    last = repeats[-1]
    return CaseResult(
        name=case.name,
        wall_seconds=wall,
        tuples_per_sec=last.total_processed / wall if wall > 0 else float("inf"),
        total_processed=last.total_processed,
        total_results=last.total_results,
        migrations=last.migrations,
        latency_p50=last.latency_p50,
        latency_p99=last.latency_p99,
        mean_throughput=last.mean_throughput,
    )


def run_matrix(
    quick: bool = False,
    progress=None,
    repeats: int = DEFAULT_REPEATS,
    jobs: int | None = 1,
    cases: tuple[BenchCase, ...] | None = None,
    on_result=None,
    shards: int | None = None,
) -> dict:
    """Run the matrix (or its quick subset) into a report dict.

    ``jobs`` fans the (cells x repeats) grid out across worker processes
    (see :mod:`repro.parallel`); the report's simulated metrics are
    bit-identical for every ``jobs`` value because each unit is a pure
    function of ``(case, seed)`` and results merge in serial order.  The
    default stays 1 — the serial reference path — so wall numbers written
    by unattended runs are contention-free unless parallelism is asked
    for.  ``cases`` overrides the matrix (parallel-equivalence tests run
    random subsets).  ``shards`` (the CLI's ``--shards``) overrides every
    cell's shard count: deterministic metrics stay bit-identical to the
    serial matrix, so ``--check`` still cross-checks them exactly, while
    wall-clock comparisons are demoted to warnings (the committed
    baselines are serial by contract).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    matrix = bench_cases(quick) if cases is None else tuple(cases)
    if shards is not None and shards != 1:
        matrix = tuple(replace(case, shards=shards) for case in matrix)
    njobs = resolve_jobs(jobs, len(matrix) * repeats)
    if njobs == 1:
        results = []
        for case in matrix:
            if progress is not None:
                progress(case)
            results.append(run_case(case, repeats=repeats).to_dict())
    else:
        tasks = [
            _RepeatTask(case, r) for case in matrix for r in range(repeats)
        ]
        seen: set[str] = set()

        def announce(task: _RepeatTask) -> None:
            if progress is not None and task.case.name not in seen:
                seen.add(task.case.name)
                progress(task.case)

        per_task = run_tasks(
            _run_repeat, tasks,
            jobs=njobs, progress=announce, on_result=on_result,
        )
        results = []
        for i, case in enumerate(matrix):
            chunk = per_task[i * repeats: (i + 1) * repeats]
            results.append(_merge_repeats(case, chunk).to_dict())
    return {
        "schema": 1,
        "quick": quick,
        "repeats": repeats,
        "jobs": njobs,
        "shards": int(shards) if shards is not None else 1,
        "machine": machine_metadata(shards),
        "cases": results,
    }


# --------------------------------------------------------------------- #
# baseline comparison
# --------------------------------------------------------------------- #

@dataclass
class Comparison:
    """Outcome of checking a fresh report against the baseline."""

    failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


_EXACT_FIELDS = ("total_processed", "total_results", "migrations")
_FLOAT_FIELDS = ("latency_p50", "latency_p99", "mean_throughput")


def compare_reports(
    fresh: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> Comparison:
    """Compare a fresh report against the committed baseline.

    Wall-clock throughput may be up to ``tolerance`` below the baseline
    (faster is always fine).  Deterministic simulated metrics must match
    exactly; a drift there is a semantics change, not noise.

    Wall numbers are only tolerance-checked when the fresh report was
    measured serially (``jobs == 1`` and no ``--shards`` override).
    Committed baselines are serial by contract; a parallel run's workers
    share cores, so its wall-clock is not comparable — those regressions
    are demoted to warnings while the deterministic metrics still fail
    hard.  (Cells that *pin* their own ``shards`` in the matrix are part
    of the baseline and wall-checked normally: that is the scaling curve
    under regression watch.)
    """
    cmp = Comparison()
    fresh_jobs = int(fresh.get("jobs", 1))
    fresh_shards = int(fresh.get("shards", 1))
    base_by_name = {c["name"]: c for c in baseline.get("cases", [])}
    for case in fresh.get("cases", []):
        name = case["name"]
        base = base_by_name.get(name)
        if base is None:
            cmp.warnings.append(f"{name}: no baseline entry (new case?)")
            continue
        base_rate = base["tuples_per_sec"]
        rate = case["tuples_per_sec"]
        ratio = rate / base_rate if base_rate else float("inf")
        verdict = "ok"
        if ratio < 1.0 - tolerance:
            message = (
                f"{name}: {rate:,.0f} tuples/s is "
                f"{(1.0 - ratio) * 100:.1f}% below baseline {base_rate:,.0f} "
                f"(tolerance {tolerance * 100:.0f}%)"
            )
            if fresh_jobs > 1 or fresh_shards > 1:
                what = (
                    f"jobs={fresh_jobs}" if fresh_jobs > 1
                    else f"--shards {fresh_shards}"
                )
                verdict = f"ok (wall not checked, {what})"
                cmp.warnings.append(
                    message + f" — ignored: measured with {what}, "
                    "wall baselines are serial"
                )
            else:
                verdict = "REGRESSION"
                cmp.failures.append(message)
        cmp.lines.append(
            f"{name}: {rate:,.0f} vs baseline {base_rate:,.0f} tuples/s "
            f"({ratio:+.0%} rel) {verdict}"
        )
        for fld in _EXACT_FIELDS:
            if case[fld] != base[fld]:
                cmp.failures.append(
                    f"{name}: deterministic metric {fld} drifted "
                    f"({case[fld]} != baseline {base[fld]}); the engine's "
                    "semantics changed — fix it or refresh the baseline "
                    "with --update-baseline"
                )
        for fld in _FLOAT_FIELDS:
            a, b = float(case[fld]), float(base[fld])
            same = (a == b) or (np.isnan(a) and np.isnan(b)) or (
                b != 0 and abs(a - b) / abs(b) < 1e-9
            )
            if not same:
                cmp.failures.append(
                    f"{name}: deterministic metric {fld} drifted "
                    f"({a!r} != baseline {b!r})"
                )
    return cmp


def format_report(report: dict) -> str:
    """Human-readable table of a report's cases."""
    from .report import comparison_table

    cols = [
        "name", "tuples_per_sec", "wall_seconds", "total_processed",
        "total_results", "migrations", "latency_p50", "latency_p99",
    ]
    rows = [{c: case[c] for c in cols} for case in report["cases"]]
    meta = report.get("machine", {})
    head = (
        f"hot-path bench ({'quick subset' if report.get('quick') else 'full matrix'}) — "
        f"python {meta.get('python', '?')}, numpy {meta.get('numpy', '?')}, "
        f"{meta.get('machine', '?')}"
    )
    return head + "\n" + comparison_table(rows, cols)


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)

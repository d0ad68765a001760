"""The benchmark's workloads: inputs made from the seed, one measured window.

Load is defined in simulated time.  A run of ``seconds`` does a fixed
amount of simulated work, sized so that it takes about ``seconds`` of wall
time on the reference machine (2 vCPUs, see README.md), and times that
work on the wall clock.  Two commits given the same seed and ``seconds``
therefore do identical work, and their simulated results must be
identical too.

Everything the program receives is generated here from ``--seed`` with the
benchmark's own ``numpy`` generator: key permutations, drift phases, and
the fault and elasticity spec strings.  Only public entry points of the
program are called.

Wall times are reported twice: as measured (``raw_*``), and in
reference-machine time.  The host this runs on is shared, and for seconds
at a time it runs a process up to 1.5x slower.  So after every
``PROBE_EVERY`` ticks the child times a fixed reference loop (this file's
code, identical on every commit of the program) and scales the preceding
ticks' wall times by ``REFERENCE_S / its time``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["setup", "measure", "window_ticks"]

#: blocks per measured window; the correctness checks run at every block
#: boundary, outside the timed region
N_BLOCKS = 20
#: ticks between two speed probes
PROBE_EVERY = 40
#: the speed probe's time on the reference machine when the host is quiet
REFERENCE_S = 0.00080

#: simulated ticks per wall second on the reference machine (window sizing)
#: (fig1-skew and fig1-skew-2proc must share one, their digests must match)
_TICK_RATE = {"fig1-skew": 850, "fig1-skew-2proc": 850, "drift-churn": 450}
#: wall seconds of one oracle-check case on the reference machine
_CASE_WALL_S = 0.8


class SpeedProbe:
    """A fixed loop of interpreter and small-array work: how fast is the
    host running this process right now?"""

    def __init__(self) -> None:
        rng = np.random.default_rng(7)
        self._table = rng.integers(0, 50, 1 << 16)
        self._big = rng.integers(0, 100, 1 << 18)
        self._keys = rng.integers(0, 1 << 16, 1024)
        self._idx = rng.integers(0, 1 << 18, 4096)
        self._out = np.empty(1024, dtype=np.int64)
        self._cum = np.empty(1024)
        self._gathered = np.empty(4096, dtype=np.int64)
        #: total time spent probing (excluded from every measurement)
        self.spent_s = 0.0

    def scale(self) -> float:
        """``REFERENCE_S`` over the loop's time now: multiply wall times by
        it to get reference-machine time."""
        keys, out, cum = self._keys, self._out, self._cum
        counts: dict[int, int] = {}
        t0 = time.perf_counter()
        for u in range(40):
            self._table.take(keys, out=out, mode="clip")
            np.cumsum(out, out=cum)
            cut = int(cum.searchsorted(cum[-1] * 0.5))
            self._big.take(self._idx, out=self._gathered)
            for k in keys[:32].tolist():
                counts[k] = counts.get(k, 0) + cut
            keys[u] = (keys[u] * 31 + 7) % (1 << 16)
        elapsed = time.perf_counter() - t0
        self.spent_s += elapsed
        return REFERENCE_S / elapsed


def _rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per input stream, derived from the seed."""
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


@dataclass
class Case:
    """One built workload, ready for its measured window."""

    workload: str
    seed: int
    runtime: object = None
    coordinator: object = None
    warmup_ticks: int = 0
    specs: dict = field(default_factory=dict)
    harness: object = None


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #

def _fig1_sources(seed: int):
    """The ride-hailing order (R) and track (S) streams at 96k orders/s."""
    from repro.bench.experiments import canonical_workload_spec
    from repro.data.distributions import KeySampler, tiered_probabilities
    from repro.data.streams import StreamSource

    spec = canonical_workload_spec(rate=96_000.0)
    order_p = tiered_probabilities(
        spec.n_locations, spec.order_top_fraction, spec.order_top_share,
        within_exponent=spec.within_tier_exponent,
    )
    track_p = tiered_probabilities(
        spec.n_locations, spec.track_top_fraction, spec.track_top_share,
        within_exponent=spec.within_tier_exponent,
    )
    # Orders and tracks are hot at the same locations: one permutation.
    perm = _rng(seed, "fig1.perm").permutation(spec.n_locations)
    orders = StreamSource(
        "R", KeySampler(order_p, key_ids=perm), spec.order_rate,
        _rng(seed, "fig1.orders"),
    )
    tracks = StreamSource(
        "S", KeySampler(track_p, key_ids=perm), spec.track_rate,
        _rng(seed, "fig1.tracks"),
    )
    return orders, tracks


def _churn_sources(seed: int, horizon: float):
    """Zipf 1.2 over 100k keys at 24k tuples/s per stream; the hot set
    re-permutes every 400k tuples per stream.

    R and S share each phase's permutation (hot on both sides).  Phases
    cycle through eight permutations so memory does not grow with the run.
    """
    from repro.data.distributions import (
        DriftingSampler, KeySampler, zipf_probabilities,
    )
    from repro.data.streams import StreamSource

    n_keys, rate, drift = 100_000, 24_000.0, 400_000
    p = zipf_probabilities(n_keys, 1.2)
    perm_rng = _rng(seed, "churn.perm")
    phases = [KeySampler(p, key_ids=perm_rng.permutation(n_keys)) for _ in range(8)]
    n_phases = int(horizon * rate) // drift + 2
    order = [phases[i % len(phases)] for i in range(n_phases)]
    bounds = [drift * (i + 1) for i in range(n_phases - 1)]
    return tuple(
        StreamSource(
            side, DriftingSampler(order, bounds), rate,
            _rng(seed, f"churn.source.{side}"),
        )
        for side in ("R", "S")
    )


def _churn_specs(seed: int, horizon: float, n_instances: int) -> dict:
    """Fault and elasticity specs: a crash every 30 s, a failover every 30 s
    offset by 15 s, checkpoints every 0.5 s, and +2/-2 instances per side
    alternating every 40 s.  Short (``--quick``) runs compress the cadence
    so that every kind of event still happens."""
    rng = _rng(seed, "churn.specs")
    period = min(30.0, horizon / 3.0)
    faults = []
    for kind, first in (("crash", period), ("failover", 1.5 * period)):
        t = first
        while t < horizon:
            side = "RS"[int(rng.integers(2))]
            inst = int(rng.integers(n_instances))
            at = t + float(rng.uniform(0.0, 0.1)) * period
            outage = float(rng.uniform(1.0, 3.0)) * period / 30.0
            faults.append(f"{kind}:{side}{inst}@{at:.3f}+{outage:.3f}")
            t += period
    faults.append("ckpt=0.5")
    elastic = []
    t, sign = 4.0 * period / 3.0, "+"
    while t < horizon:
        elastic.append(f"at:t={t:.3f}{sign}2")
        t, sign = t + 4.0 * period / 3.0, "-" if sign == "+" else "+"
    return {"fault_spec": ";".join(faults), "elastic_spec": ";".join(elastic)}


def _oracle_cases(seed: int, n_cases: int) -> list[dict]:
    """Differential cases: per-case seed, faults and a scale-out/in pair.

    Emission lasts 2 simulated seconds (4,000 tuples per stream at 2,000/s);
    every event falls inside it, and outages end early enough to drain.
    """
    rng = _rng(seed, "oracle.cases")
    cases = []
    for _ in range(n_cases):
        side = int(rng.integers(2))
        crash_at, fail_at = rng.uniform(0.2, 1.2, size=2)
        up, down = sorted(rng.uniform(0.2, 1.8, size=2))
        cases.append({
            "seed": int(rng.integers(2**31)),
            "fault_spec": (
                f"crash:{'RS'[side]}{int(rng.integers(4))}@{crash_at:.3f}"
                f"+{rng.uniform(0.1, 0.4):.3f};"
                f"failover:{'SR'[side]}{int(rng.integers(4))}@{fail_at:.3f}"
                f"+{rng.uniform(0.1, 0.4):.3f};"
                f"delay:R@{rng.uniform(0.2, 1.8):.3f}+{rng.uniform(0.05, 0.2):.3f};"
                "ckpt=0.25"
            ),
            "elastic_spec": f"at:t={up:.3f}+1;at:t={down + 0.05:.3f}-1",
        })
    return cases


_ORACLE_PARAMS = dict(
    workload="zipf", zipf=0.8, tuples_per_stream=4_000, n_instances=4,
    ticks=400, guards=True,
)


def _harness(spec: dict):
    """One ``run_differential`` case, built but not run."""
    from repro.validate import DifferentialHarness

    return DifferentialHarness(
        "fastjoin", seed=spec["seed"], fault_spec=spec["fault_spec"],
        elastic_spec=spec["elastic_spec"], **_ORACLE_PARAMS,
    )


# ---------------------------------------------------------------------- #
# set-up: everything up to and including the first tick
# ---------------------------------------------------------------------- #

def setup(workload: str, seed: int, seconds: float, quick: bool) -> Case:
    """Build the workload's inputs and system and run its first tick.

    For ``oracle-check`` set-up ends when the first case's differential
    harness is built: the harness owns its ticks.
    """
    from repro import build_system
    from repro.bench.experiments import canonical_config
    from repro.engine.cost import IndexedCost

    case = Case(workload=workload, seed=seed)
    if workload == "oracle-check":
        n_cases = max(1, round(seconds / _CASE_WALL_S))
        case.specs = {"cases": _oracle_cases(seed, n_cases)}
        case.harness = _harness(case.specs["cases"][0])
        return case

    if workload == "drift-churn":
        warmup = 2.0 if quick else 10.0
        config = canonical_config(
            n_instances=8, theta=2.2, seed=seed, warmup=warmup,
            window_subwindows=None,
            cost_model=IndexedCost(probe_base=1.0, emit_cost=0.0),
        )
        horizon = warmup + window_ticks(workload, seconds) * config.tick + 1.0
        case.specs = _churn_specs(seed, horizon, config.n_instances)
        config = config.with_(**case.specs)
        r_source, s_source = _churn_sources(seed, horizon)
    else:
        warmup = 5.0 if quick else 30.0
        config = canonical_config(n_instances=16, theta=2.2, seed=seed, warmup=warmup)
        r_source, s_source = _fig1_sources(seed)
    runtime = build_system("fastjoin", config, r_source, s_source)
    if workload == "fig1-skew-2proc":
        case.coordinator = _attach_shards(runtime)
    runtime.step()
    case.runtime = runtime
    case.warmup_ticks = round(warmup / config.tick) - 1
    return case


def _attach_shards(runtime):
    """Shard the service phase over ``min(2, nproc)`` workers when the
    program supports it; otherwise stay serial (returns None)."""
    try:
        from repro.engine.shard import ShardCoordinator, effective_shards
    except ImportError:
        return None
    shards, _ = effective_shards(min(2, os.cpu_count() or 1))
    if shards < 2:
        return None
    coordinator = ShardCoordinator(shards)
    runtime.attach_sharding(coordinator)
    return coordinator


def window_ticks(workload: str, seconds: float) -> int:
    """Ticks in the measured window: a multiple of the block count."""
    per_block = max(1, round(seconds * _TICK_RATE[workload] / N_BLOCKS))
    return per_block * N_BLOCKS


# ---------------------------------------------------------------------- #
# correctness checks (outside the timed region)
# ---------------------------------------------------------------------- #

class Checks:
    """Runs the program's invariant checks on demand and counts verdicts.

    Colocation walks every stored key in Python (about 0.4 s at 100k
    keys), so it runs only at the ends of the window; the other checks run
    at every block boundary.
    """

    def __init__(self, case: Case) -> None:
        from repro.validate import InvariantGuards

        self.case = case
        self.guards = InvariantGuards(seed=case.seed)
        self.guards.bind(case.runtime)
        names = ["check_conservation", "check_deep_consistency"]
        if case.runtime.faults is not None:
            names.append("check_recovery")
        self.names = names
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, full: bool = False) -> None:
        from repro.errors import ValidationError

        _sync(self.case)
        for name in self.names + (["check_colocation"] if full else []):
            self.attempted += 1
            try:
                getattr(self.guards, name)(self.case.runtime)
            except ValidationError as exc:
                self.failures.append(f"{name}: {exc}")


def _sync(case: Case) -> None:
    """Pull the shard workers' live state into this process (if sharded)."""
    if case.coordinator is not None:
        case.coordinator.pull_all(case.runtime)


def _served(case: Case) -> int:
    """Store and probe operations served so far, retired instances included."""
    _sync(case)
    rt = case.runtime
    members = rt.instances + rt.retired["R"] + rt.retired["S"]
    return sum(inst.total_stored + inst.total_probed for inst in members)


def _arena_grows(arenas) -> int:
    return sum(a.grows for a in arenas)


def _runtime_digest(runtime, metrics) -> str:
    """Hash of the run's simulated outcome: equal runs, equal digests."""
    members = runtime.instances + runtime.retired["R"] + runtime.retired["S"]
    h = hashlib.sha256()
    h.update(repr([
        (i.side, i.instance_id, i.store.total, i.total_stored, i.total_probed,
         i.total_results, len(i.queue))
        for i in members
    ]).encode())
    h.update(repr((
        runtime.tick_index, runtime.throttled_ticks, metrics.total_processed,
        metrics.total_results, metrics.latency_p50, metrics.latency_p99,
        metrics.mean_throughput,
        [(e.time, e.side, e.source, e.target, e.n_keys, e.n_tuples, e.reason)
         for e in metrics.migrations],
    )).encode())
    for series in (metrics.throughput, metrics.processed, metrics.latency_mean):
        h.update(series.tobytes())
    return h.hexdigest()


def _sim(*, results_per_s, latency_p99_s, migrations, tuples_served,
         throttled_ticks, arena_grows):
    """Counts that only a change of the program's semantics can move.

    Arena growth is counted only in traced runs, which track every arena.
    """
    sim = {
        "sim.results_per_s": float(results_per_s),
        "sim.latency_p99_s": float(latency_p99_s),
        "sim.migrations": float(migrations),
        "sim.tuples_served": float(tuples_served),
        "engine.runtime.throttled_ticks": float(throttled_ticks),
    }
    if arena_grows is not None:
        sim["engine.arena.grows"] = float(arena_grows)
    return sim


def _timings(walls: np.ndarray, scales: np.ndarray, tuples: int) -> dict:
    """The end-to-end timing metrics, raw and in reference-machine time."""
    scaled = walls * scales
    return {
        "wall_s": float(walls.sum()),
        "scaled_wall_s": float(scaled.sum()),
        "tuples": int(tuples),
        "tuples_per_s": tuples / float(scaled.sum()),
        "tick_ms_p50": float(np.percentile(scaled, 50) * 1e3),
        "tick_ms_p99": float(np.percentile(scaled, 99) * 1e3),
        "raw_tuples_per_s": tuples / float(walls.sum()),
        "raw_tick_ms_p50": float(np.percentile(walls, 50) * 1e3),
        "raw_tick_ms_p99": float(np.percentile(walls, 99) * 1e3),
        "speed_scale": float(np.median(scales)),
    }


# ---------------------------------------------------------------------- #
# the measured window
# ---------------------------------------------------------------------- #

def measure(case: Case, seconds: float, tracer=None, arenas=None) -> dict:
    """Run the measured window; return raw results for ``run.py``."""
    if case.workload == "oracle-check":
        return _measure_oracle(case, tracer, arenas)
    return _measure_runtime(case, window_ticks(case.workload, seconds), tracer, arenas)


def _measure_runtime(case: Case, n_window: int, tracer, arenas) -> dict:
    rt = case.runtime
    step = rt.step
    clock = time.perf_counter
    for _ in range(case.warmup_ticks):
        step()
    checks = Checks(case)
    checks.run(full=True)
    probe = SpeedProbe()
    per = n_window // N_BLOCKS
    walls = np.empty(n_window)
    scales = np.empty(n_window)
    served0 = _served(case)
    throttled0 = rt.throttled_ticks
    migrations0 = len(rt.metrics.migration_events())
    grows0 = _arena_grows(arenas) if arenas is not None else 0
    if tracer is not None:
        tracer.start_window()
    for b in range(N_BLOCKS):
        for i in range(b * per, (b + 1) * per):
            t0 = clock()
            step()
            walls[i] = clock() - t0
            if (i + 1) % PROBE_EVERY == 0:
                scales[i + 1 - PROBE_EVERY : i + 1] = probe.scale()
        if tracer is not None:
            tracer.enabled = False
        checks.run(full=b == N_BLOCKS - 1)
        if tracer is not None:
            tracer.enabled = True
    tail = n_window % PROBE_EVERY
    if tail:
        scales[n_window - tail :] = probe.scale()
    if tracer is not None:
        tracer.stop_window()
        tracer.enabled = False
    served = _served(case) - served0
    grows = _arena_grows(arenas) - grows0 if arenas is not None else None
    if case.coordinator is not None:
        case.coordinator.shutdown(rt)
    metrics = rt.metrics.finalize()
    return {
        "ticks": n_window,
        **_timings(walls, scales, served),
        "checks_attempted": checks.attempted,
        "check_failures": checks.failures,
        "digest": _runtime_digest(rt, metrics),
        "shards": case.coordinator.nshards if case.coordinator else 1,
        "specs": case.specs,
        "sim": _sim(
            results_per_s=metrics.mean_throughput,
            latency_p99_s=metrics.latency_p99,
            migrations=len(metrics.migrations) - migrations0,
            tuples_served=served,
            throttled_ticks=rt.throttled_ticks - throttled0,
            arena_grows=grows,
        ),
    }


def _measure_oracle(case: Case, tracer, arenas) -> dict:
    """Run every differential case; the first reuses the set-up harness.

    The harness drives the ticks itself, so a bare timer around the
    system's ``step`` times them and runs the speed probe between them;
    traced runs leave the probe's time out of the spans it ran inside.
    """
    from repro.engine.runtime import StreamJoinRuntime
    from repro.errors import ReproError

    clock = time.perf_counter
    probe = SpeedProbe()
    walls: list[float] = []
    scales: list[float] = []
    plain_step = StreamJoinRuntime.step

    def timed_step(self):
        t0 = clock()
        plain_step(self)
        walls.append(clock() - t0)
        if len(walls) % PROBE_EVERY == 0:
            spent = probe.spent_s
            scales.extend([probe.scale()] * PROBE_EVERY)
            if tracer is not None:
                tracer.exclude(probe.spent_s - spent)

    run_case = _run_case
    if tracer is not None:
        run_case = tracer.wrap("validate.differential.run", _run_case)
        tracer.start_window()
    tuples = 2 * _ORACLE_PARAMS["tuples_per_stream"]
    case_walls = []
    case_scaled = []
    failures = []
    reports = []
    results = sim_s = lat_p99 = 0.0
    migrations = 0
    grows0 = _arena_grows(arenas) if arenas is not None else 0
    StreamJoinRuntime.step = timed_step
    try:
        for i, spec in enumerate(case.specs["cases"]):
            first_scale = len(scales)
            probed = probe.spent_s
            t0 = clock()
            try:
                harness, report = run_case(case.harness if i == 0 else None, spec)
            except ReproError as exc:
                # A guard or the engine rejected the run: a failed check.
                failures.append(f"case {i} ({spec}): {type(exc).__name__}: {exc}")
                harness = report = None
            wall = clock() - t0 - (probe.spent_s - probed)
            case_scale = scales[first_scale:] or [probe.scale()]
            case_walls.append(wall)
            case_scaled.append(wall * float(np.mean(case_scale)))
            if report is None:
                continue
            if tracer is not None:
                tracer.enabled = False
            reports.append((report.pairs_expected, report.results_system,
                            report.n_migrations, report.ok))
            if not report.ok:
                failures.append(f"case {i} ({spec}): {report.summary()}")
            m = harness.runtime.metrics.finalize()
            results += m.total_results
            sim_s += m.duration
            lat_p99 = max(lat_p99, m.latency_p99)
            migrations += report.n_migrations
            if tracer is not None:
                tracer.enabled = True
    finally:
        StreamJoinRuntime.step = plain_step
        if tracer is not None:
            tracer.stop_window()
            tracer.enabled = False
    grows = _arena_grows(arenas) - grows0 if arenas is not None else None
    scales.extend([probe.scale()] * (len(walls) - len(scales)))
    n_tuples = tuples * len(case_walls)
    timings = _timings(np.asarray(walls), np.asarray(scales), n_tuples)
    # Cases differ in how much oracle work they carry: the median case is
    # steadier from run to run than the total.
    timings.update(
        wall_s=float(sum(case_walls)),
        scaled_wall_s=float(sum(case_scaled)),
        tuples_per_s=tuples / float(np.median(case_scaled)),
        raw_tuples_per_s=tuples / float(np.median(case_walls)),
    )
    return {
        "ticks": len(walls),
        "cases": len(case_walls),
        **timings,
        "checks_attempted": len(case_walls),
        "check_failures": failures,
        "digest": hashlib.sha256(repr(reports).encode()).hexdigest(),
        "shards": 1,
        "specs": case.specs,
        "sim": _sim(
            results_per_s=results / sim_s if sim_s else 0.0,
            latency_p99_s=lat_p99,
            migrations=migrations,
            tuples_served=n_tuples,
            throttled_ticks=0,
            arena_grows=grows,
        ),
    }


def _run_case(harness, spec):
    """One ``run_differential`` case: build the harness (unless set-up
    already did) and run it."""
    if harness is None:
        harness = _harness(spec)
    return harness, harness.run()

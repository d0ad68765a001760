"""Canonical experiment definitions for the paper's figures.

Every bench in ``benchmarks/`` builds on the configurations here, so the
mapping from a paper figure to simulation parameters lives in one place.

Scale mapping (recorded in EXPERIMENTS.md): the paper's 30-node / 48-join-
instance Storm cluster maps onto a 16-instance-per-side simulated system;
the Fig. 5/6 sweep 16..64 instances maps onto 8..32.  The paper's 10..70 GB
dataset slices map onto workload ``scale`` 1..7.  Absolute tuple rates are
simulator work-units and not comparable to the paper's cluster numbers —
the reproduction targets are orderings, gap ratios and curve shapes.

The canonical operating point is calibrated (see DESIGN.md section 5) so
that a *balanced* system runs at ~90% utilisation: BiStream's skew-hot
instances are then decisively overloaded (queues, throttling, latency),
which is the regime the paper's evaluation demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SystemConfig
from ..data.distributions import DriftingSampler, KeySampler, zipf_probabilities
from ..data.ridehailing import RideHailingSpec, RideHailingWorkload
from ..data.streams import StreamSource
from ..data.synthetic import SyntheticGroupSpec, make_group_sources
from ..engine.cost import IndexedCost
from ..engine.metrics import RunMetrics
from ..engine.rng import SeedSequenceFactory
from ..parallel import run_tasks
from ..systems import build_system

__all__ = [
    "CANONICAL_INSTANCES",
    "INSTANCE_SWEEP",
    "PAPER_INSTANCE_LABELS",
    "SCALE_SWEEP",
    "SCALE_GB_LABELS",
    "THETA_SWEEP",
    "SWEEP_SYSTEMS",
    "ELASTIC_SCHEDULE",
    "canonical_config",
    "canonical_workload_spec",
    "ridehailing_sources",
    "run_ridehailing",
    "run_synthetic_group",
    "skew_drift_sources",
    "run_elasticity",
    "ExperimentResult",
    "ExperimentTask",
    "ExperimentOutcome",
    "run_experiment_tasks",
    "run_compare",
    "run_instance_sweep",
    "run_scale_sweep",
    "run_theta_sweep",
]

#: our 16 instances stand in for the paper's 48 (default setting)
CANONICAL_INSTANCES = 16
#: sweep standing in for the paper's 16..64 (Fig. 5/6)
INSTANCE_SWEEP = (8, 12, 16, 24, 32)
#: paper-label for each sweep point, for report tables
PAPER_INSTANCE_LABELS = {8: "16", 12: "24", 16: "48", 24: "56", 32: "64"}
#: dataset scales standing in for 10..70 GB (Fig. 7/8); small datasets
#: finish before migration pays off — the paper's small-dataset effect
SCALE_SWEEP = (1.0, 2.0, 4.0, 8.0)
SCALE_GB_LABELS = {1.0: "~10 GB", 2.0: "~20 GB", 4.0: "~40 GB", 8.0: "~70 GB"}
#: thresholds for the Theta sweep (Fig. 9/10; paper default 2.2)
THETA_SWEEP = (1.2, 2.2, 3.5, 6.0, 12.0, 40.0, 200.0)

#: canonical run length / warm-up in simulated seconds
RUN_DURATION = 60.0
WARMUP = 25.0

#: canonical elasticity schedule for the skew-drift experiment: grow by
#: two instances per side at the drift point, shrink back once the new
#: hot set has been absorbed (see :func:`run_elasticity`)
ELASTIC_SCHEDULE = "at:t=20+2;at:t=38-2"


def canonical_workload_spec(rate: float = 2_400.0, scale: float = 1.0) -> RideHailingSpec:
    """The DiDi-substitute workload at the calibrated operating point."""
    return RideHailingSpec(
        n_locations=1_000,
        order_rate=rate,
        track_to_order_ratio=10.0,
        within_tier_exponent=0.0,
        scale=scale,
    )


def canonical_config(
    n_instances: int = CANONICAL_INSTANCES,
    theta: float | None = 2.2,
    seed: int = 0,
    **overrides,
) -> SystemConfig:
    """The calibrated system configuration shared by all figure benches."""
    base = dict(
        n_instances=n_instances,
        capacity=15_000.0,
        cost_model=IndexedCost(probe_base=1.0, emit_cost=0.05),
        theta=theta,
        tick=0.025,
        warmup=WARMUP,
        monitor_period=1.0,
        monitor_min_load=1e5,
        monitor_cooldown=2.0,
        contrand_subgroup=2,
        window_subwindows=6,
        window_rotation_period=4.0,
        backpressure_max_queue=2_000,
        seed=seed,
    )
    base.update(overrides)
    return SystemConfig(**base)


@dataclass
class ExperimentResult:
    """One run's headline numbers plus the full metrics object."""

    system: str
    metrics: RunMetrics
    throttled_ticks: int = 0
    params: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Steady-state join-result rate (results / simulated second)."""
        return self.metrics.mean_throughput

    @property
    def latency_ms(self) -> float:
        """Mean arrival-to-completion latency in milliseconds."""
        return self.metrics.latency_overall_mean * 1e3

    @property
    def n_migrations(self) -> int:
        return len(self.metrics.migrations)

    def li_series(self) -> np.ndarray:
        """Per-second LI, worse side (max of R and S monitors)."""
        r = self.metrics.li.get("R", np.array([np.nan]))
        s = self.metrics.li.get("S", np.array([np.nan]))
        n = max(r.shape[0], s.shape[0])
        out = np.full(n, np.nan)
        out[: r.shape[0]] = r
        both = np.full(n, np.nan)
        both[: s.shape[0]] = s
        return np.fmax(out, both)

    def median_li(self) -> float:
        li = self.li_series()
        li = li[np.isfinite(li)]
        tail = li[li.shape[0] // 2 :]
        return float(np.median(tail)) if tail.size else float("nan")


def ridehailing_sources(
    spec: RideHailingSpec, seed: int, unbounded: bool = True
) -> tuple[StreamSource, StreamSource]:
    """Build the order/track sources; ``unbounded`` streams forever (the
    continuous-run experiments), else the finite dataset (size sweeps)."""
    seeds = SeedSequenceFactory(seed)
    workload = RideHailingWorkload.build(spec, seeds)
    orders, tracks = workload.sources(seeds)
    if unbounded:
        orders.total = None
        tracks.total = None
    return orders, tracks


def run_ridehailing(
    system: str,
    config: SystemConfig,
    spec: RideHailingSpec | None = None,
    duration: float | None = RUN_DURATION,
    unbounded: bool = True,
    max_duration: float = 240.0,
    obs=None,
) -> ExperimentResult:
    """Run one system on the ride-hailing workload and collect results.

    ``obs`` (an :class:`repro.obs.Observability`) attaches event tracing /
    metrics / profiling to the run; the caller owns its lifecycle.
    """
    spec = spec or canonical_workload_spec()
    orders, tracks = ridehailing_sources(spec, config.seed, unbounded=unbounded)
    runtime = build_system(system, config, orders, tracks)
    if obs is not None:
        runtime.attach_observer(
            obs,
            meta={"system": system, "workload": "ridehailing",
                  "seed": config.seed},
        )
    metrics = runtime.run(
        duration=duration, drain=not unbounded, max_duration=max_duration
    )
    return ExperimentResult(
        system=system,
        metrics=metrics,
        throttled_ticks=runtime.throttled_ticks,
        params={"spec": spec, "config": config},
    )


# --------------------------------------------------------------------- #
# parallel campaign surfaces
#
# A campaign (compare matrix, figure sweep) is a list of ExperimentTasks,
# each a pure function of its own fields — no live objects cross the
# process boundary; workers rebuild sources and runtimes from
# ``(task, task.seed)`` exactly like the serial helpers above do, so the
# merged results are bit-identical for every ``jobs`` value.
# --------------------------------------------------------------------- #

#: systems every comparison matrix covers, in canonical report order
SWEEP_SYSTEMS = ("bistream", "contrand", "fastjoin")


@dataclass(frozen=True)
class ExperimentTask:
    """One picklable cell of an experiment campaign.

    ``rate=None`` uses the workload's canonical offered rate; ``warmup=
    None`` uses the canonical 25 s carve.  ``theta`` is the cell's own
    threshold (callers put ``None`` on the baselines).  ``capture=True``
    makes the worker trace the run into an in-memory
    :class:`~repro.obs.events.CaptureSink` and return the events, so the
    parent can forward them to its sinks (``--trace`` under ``--jobs``).
    """

    system: str
    workload: str = "ridehailing"   # "ridehailing" or a Gxy group label
    n_instances: int = CANONICAL_INSTANCES
    duration: float | None = RUN_DURATION
    rate: float | None = None
    theta: float | None = 2.2
    selector: str = "greedyfit"
    seed: int = 0
    warmup: float | None = None
    scale: float = 1.0
    unbounded: bool = True
    max_duration: float = 240.0
    n_keys: int = 1_000
    capture: bool = False
    fault_spec: str | None = None   # --faults grammar; None = fault-free
    elastic_spec: str | None = None  # --elastic grammar; None = fixed fleet
    label: str = ""

    def display(self) -> str:
        return self.label or f"{self.system}/{self.workload}"


@dataclass
class ExperimentOutcome:
    """What one worker hands back to the campaign's parent process."""

    task: ExperimentTask
    result: ExperimentResult
    events: list[dict] | None = None       # captured trace, if asked for
    profiler_summary: str | None = None


def _config_for(task: ExperimentTask) -> SystemConfig:
    overrides: dict = {}
    if task.warmup is not None:
        overrides["warmup"] = task.warmup
    if task.fault_spec is not None:
        overrides["fault_spec"] = task.fault_spec
        # Fault injection requires full-history stores: sub-window ages
        # cannot be rebuilt from count checkpoints, so fault cells run
        # unwindowed (the canonical config windows by default).
        overrides["window_subwindows"] = None
    if task.elastic_spec is not None:
        overrides["elastic_spec"] = task.elastic_spec
        # Elastic drains move count-level state, which windowed stores
        # cannot absorb — same restriction as fault cells.
        overrides["window_subwindows"] = None
    return canonical_config(
        n_instances=task.n_instances,
        theta=task.theta,
        seed=task.seed,
        selector=task.selector,
        **overrides,
    )


def run_experiment_task(task: ExperimentTask) -> ExperimentOutcome:
    """Pool worker: rebuild and run one cell from its spec (spawn-safe)."""
    obs = None
    if task.capture:
        from ..obs import Observability

        obs = Observability.create(capture=True)
    try:
        config = _config_for(task)
        if task.workload == "ridehailing":
            spec = (
                canonical_workload_spec(rate=task.rate, scale=task.scale)
                if task.rate
                else canonical_workload_spec(scale=task.scale)
            )
            result = run_ridehailing(
                task.system,
                config,
                spec=spec,
                duration=task.duration,
                unbounded=task.unbounded,
                max_duration=task.max_duration,
                obs=obs,
            )
        else:
            result = run_synthetic_group(
                task.system,
                task.workload,
                config,
                n_keys=task.n_keys,
                rate=task.rate if task.rate else 4_500.0,
                duration=task.duration if task.duration is not None else 40.0,
                obs=obs,
            )
        events = None
        profiler_summary = None
        if obs is not None:
            if obs.capture_sink is not None:
                events = obs.capture_sink.to_dicts()
            if obs.profiler is not None:
                profiler_summary = obs.profiler.summary()
        return ExperimentOutcome(
            task=task, result=result, events=events,
            profiler_summary=profiler_summary,
        )
    finally:
        if obs is not None:
            obs.close()


def run_experiment_tasks(
    tasks, *, jobs: int | None = None, progress=None, on_result=None,
    method: str | None = None,
) -> list[ExperimentOutcome]:
    """Fan a campaign's cells across worker processes (serial order out)."""
    return run_tasks(
        run_experiment_task, list(tasks),
        jobs=jobs, progress=progress, on_result=on_result, method=method,
    )


def run_compare(
    systems=SWEEP_SYSTEMS,
    *,
    workload: str = "ridehailing",
    n_instances: int = CANONICAL_INSTANCES,
    duration: float = RUN_DURATION,
    rate: float | None = None,
    theta: float = 2.2,
    selector: str = "greedyfit",
    seed: int = 0,
    warmup: float | None = None,
    capture: bool = False,
    fault_spec: str | None = None,
    elastic_spec: str | None = None,
    jobs: int | None = None,
    progress=None,
) -> list[ExperimentOutcome]:
    """The ``compare`` matrix: one cell per system, FastJoin active.

    Baselines get ``theta=None`` (passive monitors), mirroring the CLI's
    long-standing serial loop; outcomes come back in ``systems`` order.
    ``fault_spec`` runs every cell under the same deterministic fault
    plan (see :mod:`repro.faults`); ``elastic_spec`` runs every cell
    under the same scaling policy (see :mod:`repro.elastic` — FastJoin
    only, the CLI rejects it for the baselines).
    """
    tasks = [
        ExperimentTask(
            system=system,
            workload=workload,
            n_instances=n_instances,
            duration=duration,
            rate=rate,
            theta=theta if system == "fastjoin" else None,
            selector=selector,
            seed=seed,
            warmup=warmup,
            capture=capture,
            fault_spec=fault_spec,
            elastic_spec=elastic_spec,
            label=f"{system}/{workload}",
        )
        for system in systems
    ]
    return run_experiment_tasks(tasks, jobs=jobs, progress=progress)


def run_instance_sweep(
    systems=SWEEP_SYSTEMS,
    instances=INSTANCE_SWEEP,
    *,
    theta: float = 2.2,
    duration: float = RUN_DURATION,
    rate: float | None = None,
    seed: int = 0,
    jobs: int | None = None,
    progress=None,
) -> list[tuple[int, str, ExperimentResult]]:
    """Fig. 5/6 instance-count sweep; rows ordered (instances, system)."""
    tasks = [
        ExperimentTask(
            system=system,
            n_instances=n,
            duration=duration,
            rate=rate,
            theta=theta if system == "fastjoin" else None,
            seed=seed,
            label=f"{system}/{n}inst",
        )
        for n in instances
        for system in systems
    ]
    outcomes = run_experiment_tasks(tasks, jobs=jobs, progress=progress)
    return [
        (task.n_instances, task.system, outcome.result)
        for task, outcome in zip(tasks, outcomes)
    ]


def run_scale_sweep(
    systems=SWEEP_SYSTEMS,
    scales=SCALE_SWEEP,
    *,
    theta: float = 2.2,
    rate: float | None = None,
    seed: int = 0,
    max_duration: float = 400.0,
    jobs: int | None = None,
    progress=None,
) -> list[tuple[float, str, ExperimentResult]]:
    """Fig. 7/8 dataset-size sweep: finite datasets run to exhaustion.

    Small datasets finish in seconds, so throughput is whole-run
    results/second (``warmup=0``) — the same protocol the figure bench
    has always used, now one cell per (scale, system).
    """
    tasks = [
        ExperimentTask(
            system=system,
            scale=scale,
            duration=None,
            rate=rate,
            theta=theta if system == "fastjoin" else None,
            seed=seed,
            warmup=0.0,
            unbounded=False,
            max_duration=max_duration,
            label=f"{system}/x{scale:g}",
        )
        for scale in scales
        for system in systems
    ]
    outcomes = run_experiment_tasks(tasks, jobs=jobs, progress=progress)
    return [
        (task.scale, task.system, outcome.result)
        for task, outcome in zip(tasks, outcomes)
    ]


def run_theta_sweep(
    thetas=THETA_SWEEP,
    *,
    baselines=("contrand", "bistream"),
    n_instances: int = CANONICAL_INSTANCES,
    duration: float = RUN_DURATION,
    rate: float | None = None,
    seed: int = 0,
    jobs: int | None = None,
    progress=None,
) -> list[tuple[object, ExperimentResult]]:
    """Fig. 9/10 Theta sweep: FastJoin per threshold, then the baselines.

    Row keys are the threshold for FastJoin cells and ``"(system)"`` for
    the baseline rows, matching the figure table.
    """
    tasks = [
        ExperimentTask(
            system="fastjoin",
            n_instances=n_instances,
            duration=duration,
            rate=rate,
            theta=theta,
            seed=seed,
            label=f"fastjoin/theta{theta:g}",
        )
        for theta in thetas
    ] + [
        ExperimentTask(
            system=system,
            n_instances=n_instances,
            duration=duration,
            rate=rate,
            theta=None,
            seed=seed,
            label=f"{system}/passive",
        )
        for system in baselines
    ]
    outcomes = run_experiment_tasks(tasks, jobs=jobs, progress=progress)
    keys: list[object] = list(thetas) + [f"({s})" for s in baselines]
    return [(key, outcome.result) for key, outcome in zip(keys, outcomes)]


def run_synthetic_group(
    system: str,
    label: str,
    config: SystemConfig,
    n_keys: int = 1_000,
    rate: float = 4_500.0,
    duration: float = 40.0,
    obs=None,
) -> ExperimentResult:
    """Run one system on a Gxy synthetic skew group (Fig. 12/13).

    Gxy runs use a short tumbling window and a high per-result cost so the
    uniform group (G00) saturates the configured instances; Zipf groups
    then concentrate join-output work on hot keys, which is what degrades
    the skewed groups (see the bench module for the calibration).
    """
    spec = SyntheticGroupSpec(
        label, n_keys=n_keys, tuples_per_stream=10**9, rate=rate
    )
    seeds = SeedSequenceFactory(config.seed)
    r_source, s_source = make_group_sources(spec, seeds)
    r_source.total = None
    s_source.total = None
    runtime = build_system(system, config, r_source, s_source)
    if obs is not None:
        runtime.attach_observer(
            obs,
            meta={"system": system, "workload": label, "seed": config.seed},
        )
    metrics = runtime.run(duration=duration, drain=False, max_duration=240.0)
    return ExperimentResult(
        system=system,
        metrics=metrics,
        throttled_ticks=runtime.throttled_ticks,
        params={"group": label, "config": config},
    )


def skew_drift_sources(
    seed: int,
    *,
    n_keys: int = 1_000,
    rate: float = 4_500.0,
    zipf: float = 1.2,
    drift_after: int = 90_000,
    tuples_per_stream: int | None = None,
) -> tuple[StreamSource, StreamSource]:
    """R/S sources whose hot-key set rotates mid-stream (skew drift).

    Both streams share one permuted Zipf universe per phase (the
    validation-workload structure: hot on both sides, the regime where
    balancing matters); after ``drift_after`` tuples each stream's
    permutation is replaced by an independent one, so the popular keys
    relocate and the load concentrates somewhere new.  This is the
    workload the elasticity experiment scales against — the drift point
    is where a fixed fleet would re-balance while an elastic policy can
    also *grow*.

    ``tuples_per_stream=None`` streams forever (the continuous
    experiment); a finite total makes the run a pure function of
    ``(seed, params)`` end to end, which the golden elasticity campaign
    pins.
    """
    seeds = SeedSequenceFactory(seed)
    p = zipf_probabilities(n_keys, zipf)
    perm_a = seeds.generator("drift.perm.a").permutation(n_keys).astype(np.int64)
    perm_b = seeds.generator("drift.perm.b").permutation(n_keys).astype(np.int64)

    def drifting() -> DriftingSampler:
        return DriftingSampler(
            [KeySampler(p, key_ids=perm_a), KeySampler(p, key_ids=perm_b)],
            [drift_after],
        )

    r_source = StreamSource(
        "R", drifting(), rate, seeds.generator("drift.source.R"),
        total=tuples_per_stream,
    )
    s_source = StreamSource(
        "S", drifting(), rate, seeds.generator("drift.source.S"),
        total=tuples_per_stream,
    )
    return r_source, s_source


def run_elasticity(
    *,
    schedule: str | None = ELASTIC_SCHEDULE,
    n_instances: int = 6,
    duration: float = 45.0,
    rate: float = 4_500.0,
    n_keys: int = 1_000,
    zipf: float = 1.2,
    drift_after: int = 90_000,
    seed: int = 0,
    warmup: float = 5.0,
    obs=None,
) -> ExperimentResult:
    """The elasticity experiment: FastJoin on the skew-drift workload.

    A modest base fleet serves phase A; at the drift point the canonical
    ``ELASTIC_SCHEDULE`` grows the group by two instances per side (the
    new hot set lands on fresh capacity) and shrinks back once absorbed.
    ``schedule=None`` runs the fixed-fleet control on the *same* stream,
    so the pair isolates what elasticity buys: compare throughput,
    latency and the ``instance_counts`` series across the two results.

    With the canonical rate (4 500 tuples/s) the default ``drift_after``
    of 90 000 tuples lands at t = 20 s — the schedule's scale-out point.
    """
    config = canonical_config(
        n_instances=n_instances,
        theta=2.2,
        seed=seed,
        warmup=warmup,
        elastic_spec=schedule,
        window_subwindows=None,
    )
    r_source, s_source = skew_drift_sources(
        seed, n_keys=n_keys, rate=rate, zipf=zipf, drift_after=drift_after
    )
    runtime = build_system("fastjoin", config, r_source, s_source)
    if obs is not None:
        runtime.attach_observer(
            obs,
            meta={"system": "fastjoin", "workload": "skewdrift", "seed": seed},
        )
    metrics = runtime.run(duration=duration, drain=False, max_duration=240.0)
    return ExperimentResult(
        system="fastjoin",
        metrics=metrics,
        throttled_ticks=runtime.throttled_ticks,
        params={
            "workload": "skewdrift",
            "schedule": schedule,
            "drift_after": drift_after,
            "config": config,
        },
    )

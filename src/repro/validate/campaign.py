"""Parallel validation campaigns: differential matrices and fuzz fleets.

``python -m repro validate`` historically ran its cells — one differential
cross-check per system, one fuzz run per seed — serially in one process.
Every cell is an independent pure function of its spec, so this module
fans them out through :mod:`repro.parallel` while keeping outcomes in
serial order:

- :func:`run_differential_campaign` — the system x oracle cross-check
  matrix.  A worker-side :class:`~repro.errors.ValidationError` is a
  *reported outcome* (the run found a divergence), not a crash: it comes
  back as a failed :class:`DifferentialOutcome` carrying the message and
  the captured trace events, never as a half-pickled exception;
- :func:`run_fuzz_campaign` — a (seed x mode x selector) grid of
  adversarial schedule fuzz runs (:mod:`repro.validate.fuzz`), each
  returning its :class:`~repro.validate.fuzz.FuzzReport`.

Workers rebuild everything from the task spec, so a campaign's verdicts
are independent of ``jobs``; only wall-clock changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from ..parallel import run_tasks
from .differential import DifferentialReport, run_differential
from .fuzz import (
    FuzzReport,
    run_chaos_fuzz,
    run_elastic_fuzz,
    run_instance_fuzz,
    run_oracle_fuzz,
)

__all__ = [
    "DifferentialTask",
    "DifferentialOutcome",
    "run_differential_campaign",
    "run_differential_task",
    "run_fuzz_task",
    "FuzzTask",
    "fuzz_grid",
    "run_fuzz_campaign",
    "summarize_fuzz_reports",
]


@dataclass(frozen=True)
class DifferentialTask:
    """One system's oracle cross-check, as a picklable spec."""

    system: str
    workload: str = "zipf"
    seed: int = 0
    ticks: int = 2_000
    n_instances: int = 4
    zipf: float = 1.2
    guards: bool = True
    capture: bool = False
    fault_spec: str | None = None   # run the cell under fault injection
    elastic_spec: str | None = None  # run the cell under elastic scaling

    @property
    def label(self) -> str:
        return f"validate/{self.system}/{self.workload}"


@dataclass
class DifferentialOutcome:
    """One differential cell's verdict, safe to cross a process boundary."""

    task: DifferentialTask
    report: DifferentialReport | None = None
    error: str | None = None            # ValidationError message, if one fired
    events: list[dict] | None = None    # captured trace (forwarded by parent)

    @property
    def ok(self) -> bool:
        return self.error is None and self.report is not None and self.report.ok


def run_differential_task(task: DifferentialTask) -> DifferentialOutcome:
    """Pool worker: one differential cross-check (spawn-safe).

    Invariant violations are the harness's *output*, so they are caught
    and reported structurally; anything else (a genuine bug in the
    harness) propagates and becomes a :class:`~repro.errors.ParallelError`.
    """
    obs = None
    if task.capture:
        from ..obs import Observability

        obs = Observability.create(capture=True)
    try:
        try:
            report = run_differential(
                task.system,
                workload=task.workload,
                seed=task.seed,
                ticks=task.ticks,
                n_instances=task.n_instances,
                zipf=task.zipf,
                guards=task.guards,
                fault_spec=task.fault_spec,
                elastic_spec=task.elastic_spec,
                obs=obs,
            )
            outcome = DifferentialOutcome(task=task, report=report)
        except ValidationError as exc:
            outcome = DifferentialOutcome(task=task, error=str(exc))
        if obs is not None and obs.capture_sink is not None:
            # even a failed run forwards the events that led to the failure
            outcome.events = obs.capture_sink.to_dicts()
        return outcome
    finally:
        if obs is not None:
            obs.close()


def run_differential_campaign(
    tasks, *, jobs: int | None = None, progress=None, on_result=None,
) -> list[DifferentialOutcome]:
    """Fan differential cross-checks out; outcomes in task order."""
    return run_tasks(
        run_differential_task, list(tasks),
        jobs=jobs, progress=progress, on_result=on_result,
    )


# --------------------------------------------------------------------- #
# fuzz campaigns
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class FuzzTask:
    """One adversarial fuzz run, as a picklable spec."""

    seed: int
    mode: str = "oracle"    # "oracle" | "instance" | "chaos" | "elastic"
    selector: str = "greedyfit"
    n_actions: int = 40
    n_instances: int = 3
    windowed: bool = False
    fault: str | None = None        # oracle mode only
    with_faults: bool = False       # elastic mode: compose a fault plan

    @property
    def label(self) -> str:
        return f"fuzz/{self.mode}/{self.selector}/seed{self.seed}"


def run_fuzz_task(task: FuzzTask) -> FuzzReport:
    """Pool worker: one fuzz run; invariant hits become failed reports."""
    try:
        if task.mode == "oracle":
            return run_oracle_fuzz(
                task.seed,
                n_actions=task.n_actions,
                n_instances=task.n_instances,
                selector=task.selector,
                fault=task.fault,
            )
        if task.mode == "chaos":
            return run_chaos_fuzz(
                task.seed,
                n_actions=task.n_actions,
                n_instances=task.n_instances,
                selector=task.selector,
            )
        if task.mode == "elastic":
            return run_elastic_fuzz(
                task.seed,
                n_events=task.n_actions,
                n_instances=task.n_instances,
                selector=task.selector,
                with_faults=task.with_faults,
            )
        return run_instance_fuzz(
            task.seed,
            n_actions=task.n_actions,
            n_instances=task.n_instances,
            selector=task.selector,
            windowed=task.windowed,
        )
    except ValidationError as exc:
        return FuzzReport(
            seed=task.seed,
            mode=task.mode,
            selector=task.selector,
            fault=task.fault,
            n_actions=task.n_actions,
            ok=False,
            message=str(exc),
        )


def fuzz_grid(
    n_seeds: int,
    *,
    base_seed: int = 0,
    modes=("oracle", "instance"),
    selectors=("greedyfit", "safit"),
    n_actions: int = 40,
    n_instances: int = 3,
    windowed: bool = False,
    chaos: bool = True,
    elastic: bool = True,
) -> list[FuzzTask]:
    """The (seed x mode x selector) campaign grid, in deterministic order.

    With ``chaos=True`` (the default) each seed also gets one chaos cell
    — a random fault plan played through the full differential harness —
    so ``validate --fuzz N`` covers crash/recovery completeness too.  The
    chaos cell uses a fixed selector and its own action count (fault
    plans are much denser per action than schedule actions).  With
    ``elastic=True`` each seed further gets one elastic cell — a random
    scale-out/scale-in schedule (:func:`repro.elastic.random_elastic_policy`)
    played through the differential harness, with a composed fault plan
    on every other seed.
    """
    tasks = [
        FuzzTask(
            seed=base_seed + i,
            mode=mode,
            selector=selector,
            n_actions=n_actions,
            n_instances=n_instances,
            windowed=windowed and mode == "instance",
        )
        for i in range(n_seeds)
        for mode in modes
        for selector in selectors
    ]
    if chaos:
        tasks.extend(
            FuzzTask(
                seed=base_seed + i,
                mode="chaos",
                selector="greedyfit",
                n_actions=3,
                n_instances=4,
            )
            for i in range(n_seeds)
        )
    if elastic:
        tasks.extend(
            FuzzTask(
                seed=base_seed + i,
                mode="elastic",
                selector="greedyfit",
                n_actions=2,
                n_instances=4,
                with_faults=(i % 2 == 1),
            )
            for i in range(n_seeds)
        )
    return tasks


def run_fuzz_campaign(
    tasks, *, jobs: int | None = None, progress=None, on_result=None,
) -> list[FuzzReport]:
    """Fan fuzz runs out across workers; reports in task order."""
    return run_tasks(
        run_fuzz_task, list(tasks),
        jobs=jobs, progress=progress, on_result=on_result,
    )


def summarize_fuzz_reports(reports: list[FuzzReport]) -> str:
    """One-paragraph campaign verdict for the CLI."""
    n_fail = sum(1 for r in reports if not r.ok)
    n_migrations = sum(r.n_migrations for r in reports)
    n_pairs = sum(r.n_pairs for r in reports)
    lines = [
        f"fuzz campaign: {len(reports)} runs, {n_migrations} migrations, "
        f"{n_pairs} oracle pairs, {n_fail} failure(s)"
    ]
    for report in reports:
        if not report.ok:
            lines.append(
                f"  FAIL {report.mode}/{report.selector} seed={report.seed}: "
                f"{report.message}"
            )
    return "\n".join(lines)

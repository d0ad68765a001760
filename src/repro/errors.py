"""Exception hierarchy for the FastJoin reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class RoutingError(ReproError):
    """A tuple could not be routed, or a routing-table update is invalid."""


class MigrationError(ReproError):
    """A migration could not be planned or executed."""


class StorageError(ReproError):
    """Inconsistent keyed-store state (negative counts, unknown keys...)."""


class SimulationError(ReproError):
    """The simulation runtime reached an invalid state."""


class WorkloadError(ReproError):
    """A workload/data generator was configured or used incorrectly."""


class ParallelError(ReproError):
    """One or more cells of a parallel campaign failed in a worker.

    The process-pool runner (:mod:`repro.parallel`) never lets a worker
    exception escape as a half-pickled traceback: each failure is captured
    as a structured record (task label, root seed, exception type/message
    and the worker-side traceback text) and re-raised in the parent as one
    of these.  ``failures`` holds every failing cell, worst first being the
    submission order; the message surfaces the first cell's replay seed so
    the run can be reproduced serially with ``--jobs 1``.
    """

    def __init__(self, message: str, failures: list | None = None) -> None:
        self.failures = list(failures) if failures else []
        super().__init__(message)


class ValidationError(ReproError):
    """An invariant guard or differential check failed.

    Unlike the other exceptions, a validation failure is a *semantic* bug
    report: the simulation kept running but produced (or was about to
    produce) wrong join results.  The exception therefore carries enough
    structured context to replay the failing run deterministically —
    ``repro.validate.replay`` consumes these fields, and ``repro_command``
    renders a copy-pastable shell command.

    Parameters
    ----------
    message:
        Human-readable description of the violated invariant.
    invariant:
        Stable identifier of the check that fired (e.g. ``"conservation"``,
        ``"colocation"``, ``"exactly-once"``).
    seed:
        Root seed of the run, when known — replaying with this seed
        reproduces the violation.
    tick:
        Simulation tick index at which the check fired.
    context:
        Free-form structured details (side, instance, key, routing epoch,
        system name, workload...) for diagnostics and replay.

    When an observability trace (:mod:`repro.obs`) is active at raise
    time, the error additionally captures ``trace_tail`` — the trailing
    window of structured events from the trace's flight recorder — so a
    replayed failure arrives with the event history that led to it.
    """

    #: how many trailing trace events are captured at raise time
    TRACE_TAIL = 32

    def __init__(
        self,
        message: str,
        *,
        invariant: str | None = None,
        seed: int | None = None,
        tick: int | None = None,
        context: dict | None = None,
    ) -> None:
        self.invariant = invariant
        self.seed = seed
        self.tick = tick
        self.context = dict(context) if context else {}
        # Lazy import: repro.obs.events is stdlib-only, but errors must
        # stay importable first (every layer depends on it).
        from .obs.events import active_trace_tail

        self.trace_tail: list[dict] = active_trace_tail(self.TRACE_TAIL)
        parts = [message]
        if invariant is not None:
            parts.append(f"[invariant={invariant}]")
        if seed is not None:
            parts.append(f"[seed={seed}]")
        if tick is not None:
            parts.append(f"[tick={tick}]")
        cmd = self._render_command(seed, self.context)
        if cmd:
            parts.append(f"(replay: {cmd})")
        if self.trace_tail:
            parts.append(f"[trace: {len(self.trace_tail)} trailing events]")
        super().__init__(" ".join(parts))

    @staticmethod
    def _render_command(seed: int | None, context: dict) -> str | None:
        if seed is None:
            return None
        system = context.get("system")
        if system is None:
            return None
        ticks = context.get("ticks", 2000)
        cmd = (
            f"PYTHONPATH=src python -m repro validate "
            f"--system {system} --seed {seed} --ticks {ticks}"
        )
        fault_plan = context.get("fault_plan")
        if fault_plan:
            cmd += f" --faults '{fault_plan}'"
        return cmd

    @property
    def repro_command(self) -> str | None:
        """Shell command that replays this failure, when enough is known."""
        return self._render_command(self.seed, self.context)

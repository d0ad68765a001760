"""Phase profiling: where does a run's *real* time go?

Before optimising a hot path we must be able to see it.  The
:class:`PhaseProfiler` attributes three quantities to each runtime phase —
``emit`` (the sources' key draws), ``dispatch`` (routing and the scatter
into the instance queues), the service pass split at its kernel
boundary (``service.gather``: visibility cuts, staging and the
stored-count gather; ``service.kernel``: the service kernel and its rare
paths; ``service.fold``: the metrics fold of the tick's report block),
``monitor`` (load sampling / trigger logic) and ``migrate`` (the
migration protocol, a sub-interval of ``monitor``):

- **wall seconds** — real ``perf_counter`` time spent in the phase, which
  is what a perf PR optimises;
- **work units** — the simulator's own cost currency (tuples emitted,
  operations delivered, work-units served, tuples moved), which
  normalises wall time into seconds-per-unit so runs of different
  scales compare;
- **alloc bytes** — tracemalloc high-water delta over the phase, the
  observable for the zero-allocation steady-state contract (DESIGN §9).
  Off by default: tracemalloc slows every allocation down, so the
  counter is opt-in (``track_alloc=True``) and the wall numbers of an
  allocation-profiled run should not be compared against unprofiled ones.

The runtime pays two ``perf_counter()`` calls per phase per tick when a
profiler is attached and nothing otherwise; with allocation tracking it
additionally pays one ``get_traced_memory``/``reset_peak`` pair per phase.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from time import perf_counter

__all__ = ["PhaseProfiler", "PhaseStats", "RUNTIME_PHASES"]

#: phases the runtime attributes (``migrate`` nests inside ``monitor``)
RUNTIME_PHASES = (
    "emit", "dispatch", "service.gather", "service.kernel", "service.fold",
    "monitor", "migrate",
)


@dataclass
class PhaseStats:
    """Accumulated cost of one phase."""

    wall: float = 0.0
    work: float = 0.0
    calls: int = 0
    #: summed tracemalloc peak-deltas (bytes); 0 when tracking is off
    alloc: int = 0

    @property
    def wall_per_unit(self) -> float:
        return self.wall / self.work if self.work > 0 else float("nan")

    @property
    def alloc_per_call(self) -> float:
        return self.alloc / self.calls if self.calls > 0 else float("nan")


class PhaseProfiler:
    """Accumulates wall-time, work-units and (opt-in) alloc bytes per phase.

    Parameters
    ----------
    track_alloc:
        When True, :meth:`mark_alloc`/:meth:`alloc_since` measure the
        tracemalloc high-water delta of each phase (starting tracemalloc
        if nothing else has).  The delta is a *peak* measure, so transient
        arrays that are freed within the phase still show up — exactly
        the allocations the arena discipline is meant to eliminate.
    """

    def __init__(self, track_alloc: bool = False) -> None:
        self.phases: dict[str, PhaseStats] = {}
        self.track_alloc = bool(track_alloc)
        if self.track_alloc and not tracemalloc.is_tracing():
            tracemalloc.start()

    def now(self) -> float:
        """The profiler's clock (mockable in tests)."""
        return perf_counter()

    def mark_alloc(self) -> int:
        """Start an allocation window; returns the mark for alloc_since.

        Resets tracemalloc's peak so the next :meth:`alloc_since` sees
        only this window's high-water mark.  Returns -1 (an always-valid
        no-op mark) when tracking is disabled.
        """
        if not self.track_alloc:
            return -1
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        return current

    def alloc_since(self, mark: int) -> int:
        """Bytes the high-water mark rose above ``mark`` (0 if disabled)."""
        if mark < 0:
            return 0
        _, peak = tracemalloc.get_traced_memory()
        return max(peak - mark, 0)

    def add(
        self, phase: str, wall: float, work: float = 0.0, alloc: int = 0
    ) -> None:
        stats = self.phases.get(phase)
        if stats is None:
            stats = self.phases[phase] = PhaseStats()
        stats.wall += wall
        stats.work += work
        stats.calls += 1
        stats.alloc += alloc

    def report(self) -> dict[str, dict]:
        """JSON-serialisable per-phase summary."""
        total = sum(s.wall for s in self.phases.values()) or float("nan")
        return {
            name: {
                "wall_s": stats.wall,
                "work_units": stats.work,
                "calls": stats.calls,
                "wall_share": stats.wall / total,
                "wall_per_unit": stats.wall_per_unit,
                "alloc_bytes": stats.alloc,
                "alloc_per_call": stats.alloc_per_call,
            }
            for name, stats in sorted(self.phases.items())
        }

    def summary(self) -> str:
        """Terminal-friendly table of the report."""
        rows = self.report()
        if not rows:
            return "profiler: no phases recorded"
        width = max(len(name) for name in rows)
        header = (
            f"{'phase'.ljust(width)}  {'wall s':>10}  {'share':>6}  "
            f"{'work units':>12}  {'s/unit':>10}"
        )
        if self.track_alloc:
            header += f"  {'alloc B':>12}  {'B/call':>10}"
        lines = [header]
        for name, r in rows.items():
            line = (
                f"{name.ljust(width)}  {r['wall_s']:>10.4f}  "
                f"{r['wall_share']:>6.1%}  {r['work_units']:>12.0f}  "
                f"{r['wall_per_unit']:>10.3e}"
            )
            if self.track_alloc:
                line += (
                    f"  {r['alloc_bytes']:>12d}  {r['alloc_per_call']:>10.1f}"
                )
            lines.append(line)
        return "\n".join(lines)

"""The migration procedure (paper Algorithm 2, section III-D).

When the monitor decides to rebalance, the *source* (heaviest) instance:

1. pauses store/join processing,
2. runs the key-selection algorithm to obtain the key set ``SK``,
3. removes stored tuples with keys in ``SK`` and hands them to the target,
4. forwards tuples of ``SK`` that were already queued (the "temporary
   queue" of section III-D — without this, probes of a migrated key would
   run against an empty store and the join would be incomplete),
5. finally notifies the dispatcher, which installs routing overrides so
   future tuples of ``SK`` go to the target.

The simulated *duration* of all this — selection work plus per-tuple
transfer — is charged to the source as pause time, which is the cost that
makes too-low thresholds ``Theta`` counterproductive (Figs. 9/10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.metrics import MigrationEvent
from ..errors import ConfigError, MigrationError, ValidationError
from ..join.instance import JoinInstance
from .load_model import load_imbalance
from .routing import RoutingTable
from .selection.base import KeySelector, SelectionProblem, SelectionResult

__all__ = ["MigrationCostModel", "MigrationExecutor"]


@dataclass
class MigrationCostModel:
    """Simulated wall-time of one migration.

    ``duration = fixed + per_key * K log2(K) + per_tuple * moved``

    Defaults are calibrated so that a typical bench-scale migration lasts a
    few hundred milliseconds — matching the paper's observation that "the
    procedure is less than one second" (section VI-B, Fig. 11 discussion).
    """

    fixed: float = 0.05
    per_key: float = 2e-6
    per_tuple: float = 5e-6

    def duration(self, n_keys_considered: int, n_tuples_moved: int) -> float:
        b = self.breakdown(n_keys_considered, n_tuples_moved)
        return b["fixed"] + b["select"] + b["transfer"]

    def breakdown(self, n_keys_considered: int, n_tuples_moved: int) -> dict:
        """The duration's additive components, for span timelines.

        ``select`` is the key-selection work, ``transfer`` the per-tuple
        movement, ``fixed`` the protocol's bookkeeping overhead (pause /
        extract / reroute / drain); their sum is :meth:`duration`.
        """
        if n_keys_considered < 0 or n_tuples_moved < 0:
            raise ConfigError("counts must be non-negative")
        k = max(n_keys_considered, 1)
        return {
            "fixed": self.fixed,
            "select": self.per_key * k * float(np.log2(k + 1)),
            "transfer": self.per_tuple * n_tuples_moved,
        }


class MigrationExecutor:
    """Executes Algorithm 2 between two instances of one group."""

    def __init__(
        self,
        routing: RoutingTable,
        cost_model: MigrationCostModel | None = None,
    ) -> None:
        self.routing = routing
        self.cost_model = cost_model if cost_model is not None else MigrationCostModel()
        # Optional observability bundle (repro.obs); one test per migration.
        self.obs = None
        # Optional fault injector (repro.faults): consulted at protocol
        # phase boundaries for armed mid-migration aborts.
        self.faults = None

    def execute(
        self,
        now: float,
        side: str,
        source: JoinInstance,
        target: JoinInstance,
        selector: KeySelector,
        li_before: float,
        reason: str = "balance",
    ) -> MigrationEvent | None:
        """Run selection + migration; return the event, or None if no key
        was worth moving (the selector may legitimately come back empty,
        e.g. when a single giant key dominates and moving it would just
        swap the imbalance around).

        ``reason`` tags the resulting event (``"balance"`` for monitor
        rebalances, ``"scaleout"`` when the elastic controller seeds a
        freshly provisioned instance through this same protocol).
        """
        if source is target:
            raise MigrationError("source and target must differ")
        obs = self.obs
        wall_start = (
            obs.profiler.now()
            if obs is not None and obs.profiler is not None
            else 0.0
        )
        problem: SelectionProblem = source.selection_problem(target)
        result: SelectionResult = selector.select(problem)
        if result.empty:
            return None

        faults = self.faults
        if faults is not None and faults.migration_abort(side, now, "select") is not None:
            # Aborted after selection but before any state moved: the
            # cleanest failure — nothing to roll back, nothing happened.
            return None

        moved = result.moved_stored + result.moved_backlog
        duration = self.cost_model.duration(problem.n_keys, moved)

        key_set = set(result.selected_keys)
        stored_counts, queued = source.extract_for_migration(key_set)

        if faults is not None and faults.migration_abort(side, now, "transfer") is not None:
            # Aborted mid-transfer: put everything back at the source.
            # The attempt still consumed protocol time, so the pause is
            # charged as if the migration had run.
            source.pause_until(now + duration)
            source.note_pause(now, now + duration, "migration")
            self._rollback(side, source, key_set, stored_counts, queued, now)
            return None

        # The source stops store/join operations for the whole procedure.
        source.pause_until(now + duration)
        source.note_pause(now, now + duration, "migration")

        # Forwarded tuples become visible at the target only once the
        # transfer completes (ordering guarantee of section III-D).
        if len(queued):
            queued.times = np.maximum(queued.times, now + duration)
        target.accept_migration(stored_counts, queued)

        # Routing is updated last (section III-D): from the simulation's
        # point of view the override takes effect now, while everything the
        # dispatcher sent before this instant is already queued at the
        # source and was either extracted above or left for keys not in SK.
        self.routing.install(result.selected_keys, target.instance_id)

        if faults is not None and faults.migration_abort(side, now, "reroute") is not None:
            # Past the commit point: the overrides are live and the target
            # already owns the state.  There is no sound rollback — fail
            # loudly with a replayable error instead of a bare assertion.
            raise ValidationError(
                "migration abort requested after the reroute commit point; "
                "the protocol cannot roll back an installed routing update",
                invariant="migration-abort",
                seed=faults.seed,
                context={
                    "fault_plan": faults.plan.spec,
                    "side": side,
                    "phase": "reroute",
                    "source": source.instance_id,
                    "target": target.instance_id,
                },
            )

        # Both parties' stores changed outside the consume/WAL path: force
        # checkpoints so crash recovery replays post-migration state.
        source.sync_checkpoint(now)
        target.sync_checkpoint(now)

        l_i, l_j = (
            (problem.stored_i - result.moved_stored)
            * (problem.backlog_i - result.moved_backlog),
            (problem.stored_j + result.moved_stored)
            * (problem.backlog_j + result.moved_backlog),
        )
        li_after = load_imbalance([max(l_i, 0.0), max(l_j, 0.0)])
        event = MigrationEvent(
            time=now,
            side=side,
            source=source.instance_id,
            target=target.instance_id,
            n_keys=len(result.selected_keys),
            n_tuples=moved,
            duration=duration,
            li_before=li_before,
            li_after_estimate=li_after,
            keys=tuple(sorted(int(k) for k in result.selected_keys)),
            reason=reason,
        )
        if obs is not None:
            wall = (
                obs.profiler.now() - wall_start
                if obs.profiler is not None
                else 0.0
            )
            obs.on_migration(
                event, self.cost_model.breakdown(problem.n_keys, moved), wall
            )
        return event

    def _rollback(
        self,
        side: str,
        source: JoinInstance,
        key_set: set[int],
        stored_counts: dict[int, int],
        queued,
        now: float,
    ) -> None:
        """Undo a transfer-phase extraction: everything back to the source.

        Stored counts merge back in place; the extracted queued tuples are
        re-appended at the queue tail.  Re-appending preserves each key's
        relative order (the extraction kept FIFO order), and cross-key
        order is irrelevant to completeness — join pairs are same-key, and
        every same-key (store, probe) pair still meets in the same FIFO
        queue in dispatch order.  The store's net change is zero, so the
        checkpoint+WAL invariant survives without a forced checkpoint.

        Restoration is verified; a discrepancy raises a replayable
        :class:`~repro.errors.ValidationError` carrying the seed and the
        fault plan, never a bare assertion.
        """
        source.store.merge_counts(stored_counts)
        if len(queued):
            source.queue.push(queued)
        n = len(stored_counts)
        keys = np.fromiter(stored_counts.keys(), np.int64, n)
        expected = np.fromiter(stored_counts.values(), np.int64, n)
        live = source.store.match_counts(keys)
        wrong = {
            int(keys[i]): (int(live[i]), int(expected[i]))
            for i in np.flatnonzero(live != expected).tolist()
        }
        if wrong:
            faults = self.faults
            raise ValidationError(
                f"aborted migration rollback left {len(wrong)} key(s) with "
                f"wrong stored counts (key: (live, expected)) "
                f"{dict(list(wrong.items())[:5])}",
                invariant="migration-abort",
                seed=faults.seed if faults is not None else None,
                context={
                    "fault_plan": faults.plan.spec if faults is not None else None,
                    "side": side,
                    "phase": "transfer",
                    "source": source.instance_id,
                    "n_keys": len(key_set),
                },
            )

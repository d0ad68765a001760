"""The fault injector: applies a :class:`FaultPlan` to a live runtime.

Attached via :meth:`StreamJoinRuntime.attach_faults`, the injector runs at
the *start* of every tick (before sources emit) and:

1. takes periodic checkpoints of every live instance
   (:mod:`repro.faults.checkpoint`),
2. performs due recoveries — rebuild-in-place after a ``crash``, or an
   empty rejoin after a ``failover`` moved the state to a peer,
3. fires due ``crash``/``failover`` actions.

``delay``/``drop`` actions are consumed lazily by the runtime's dispatch
path (:meth:`dispatch_extra_delay`), and ``abort`` actions by the
migration executor at its phase boundaries (:meth:`migration_abort`).

Everything is deterministic: actions fire in ``(time, spec)`` order, the
failover survivor is the lightest *alive* peer with ties broken by
instance id, and recovery durations come from a fixed cost model — so the
same seed + fault plan reproduces bit-identical metrics under any
``--jobs`` fan-out.

Failure semantics (DESIGN §6): a crash destroys the volatile key store
and nothing else.  The input queue is the durable upstream channel — it
keeps absorbing dispatched tuples during the outage — and join results
already emitted are durable downstream, so recovery never re-serves or
suppresses work; it only rebuilds the store from checkpoint + WAL and
charges a restore-cost pause.  Completeness is therefore preserved by
construction, and the exact oracle + invariant guards verify it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

import numpy as np

from ..engine.metrics import MigrationEvent
from ..errors import ConfigError
from ..join.window import WindowedStore
from .checkpoint import InstanceCheckpointer
from .plan import FaultAction, FaultPlan

__all__ = ["FaultInjector", "RecoveryCostModel"]


@dataclass
class RecoveryCostModel:
    """Simulated wall-time of a recovery: restart bookkeeping plus the
    per-tuple cost of rebuilding (or transferring) the store."""

    fixed: float = 0.05
    per_tuple: float = 5e-6

    def duration(self, n_tuples: int) -> float:
        if n_tuples < 0:
            raise ConfigError("tuple count must be non-negative")
        return self.fixed + self.per_tuple * n_tuples


class FaultInjector:
    """Applies one :class:`FaultPlan` to one runtime, deterministically."""

    def __init__(
        self,
        plan: FaultPlan,
        *,
        seed: int = 0,
        checkpoint_period: float = 1.0,
        recovery_cost: RecoveryCostModel | None = None,
    ) -> None:
        self.plan = plan
        self.seed = int(seed)
        period = (
            plan.checkpoint_period
            if plan.checkpoint_period is not None
            else checkpoint_period
        )
        if period <= 0:
            raise ConfigError(f"checkpoint period must be > 0, got {period}")
        self.checkpoint_period = float(period)
        self.recovery_cost = (
            recovery_cost if recovery_cost is not None else RecoveryCostModel()
        )
        self.runtime = None
        acts = plan.sorted_actions()
        self._pending_kills = [a for a in acts if a.kind in ("crash", "failover")]
        self._pending_aborts = [a for a in acts if a.kind == "abort"]
        self._pending_batch = {
            side: [a for a in acts if a.kind in ("delay", "drop") and a.side == side]
            for side in ("R", "S")
        }
        #: scheduled recoveries, sorted:
        #: (time, side, instance_id, mode, crash_time) — the crash time
        #: rides along so the recovery can attribute the whole outage
        #: window [crash, recovery end] as recovery-pause latency.
        self._recoveries: list[tuple[float, str, int, str, float]] = []
        self._next_ckpt = self.checkpoint_period
        #: (tick_index, stream) -> extra delivery delay applied that tick,
        #: read back by the differential harness to mirror into the oracle
        self._delay_log: dict[tuple[int, str], float] = {}
        #: chronological human-readable record of everything that fired
        self.log: list[tuple[float, str]] = []
        self.n_crashes = 0
        self.n_failovers = 0
        self.n_recoveries = 0
        self.n_checkpoints = 0
        self.n_aborts = 0
        self.n_batch_faults = 0

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def bind(self, runtime) -> None:
        """Validate the plan against the wired system and attach state.

        Checks that every targeted instance exists, that ``failover``
        actions have a surviving peer and a content-based store
        partitioner to honour the re-route overrides, and that stores are
        full-history (a windowed store's sub-window structure cannot be
        reconstructed from count checkpoints).
        """
        groups = runtime.dispatcher.groups
        for side in ("R", "S"):
            group = groups[side]
            for a in self._pending_kills:
                if a.side != side:
                    continue
                if a.instance >= len(group):
                    raise ConfigError(
                        f"fault {a.spec!r} targets instance {a.instance} but "
                        f"the {side} group has {len(group)} instances"
                    )
                if a.kind == "failover":
                    if len(group) < 2:
                        raise ConfigError(
                            f"fault {a.spec!r} needs a surviving peer; the "
                            f"{side} group has a single instance"
                        )
                    if not runtime.dispatcher.partitioners[side].content_based:
                        raise ConfigError(
                            f"fault {a.spec!r} needs content-based routing on "
                            f"side {side} to re-route the dead instance's keys"
                        )
        for inst in runtime.instances:
            if isinstance(inst.store, WindowedStore):
                raise ConfigError(
                    "fault injection requires full-history stores; a windowed "
                    "store's sub-window ages cannot be rebuilt from count "
                    "checkpoints (disable faults or window_subwindows)"
                )
            inst.attach_checkpointer(InstanceCheckpointer(inst))
        for monitor in runtime.monitors.values():
            if monitor.executor is not None:
                monitor.executor.faults = self
        self.runtime = runtime

    # ------------------------------------------------------------------ #
    # per-tick application (runtime.step start)
    # ------------------------------------------------------------------ #

    def before_tick(self, runtime, now: float) -> bool:
        """Checkpoints, then due recoveries, then due kills.

        Returns True when anything fired (the runtime invalidates its
        queue-length cache on that signal).
        """
        acted = False
        if now >= self._next_ckpt:
            while self._next_ckpt <= now:
                self._next_ckpt += self.checkpoint_period
            n_live = 0
            n_tuples = 0
            for inst in runtime.instances:
                ckptr = inst.checkpointer
                if ckptr is not None and not ckptr.crashed:
                    n_tuples += ckptr.checkpoint(now)
                    n_live += 1
            self.n_checkpoints += 1
            acted = True
            obs = runtime.obs
            if obs is not None:
                obs.on_checkpoint(now, n_live, n_tuples)

        while self._recoveries and self._recoveries[0][0] <= now:
            _, side, idx, mode, crashed_at = self._recoveries.pop(0)
            self._recover(runtime, side, idx, mode, now, crashed_at)
            acted = True

        while self._pending_kills and self._pending_kills[0].at <= now:
            action = self._pending_kills.pop(0)
            acted = True
            inst = runtime.dispatcher.groups[action.side][action.instance]
            if inst.checkpointer.crashed:
                self.log.append((now, f"skipped {action.spec}: already down"))
                continue
            if action.kind == "crash":
                self._crash(runtime, inst, action, now)
            else:
                self._failover(runtime, inst, action, now)
        return acted

    # -- kill paths ----------------------------------------------------- #

    def _crash(self, runtime, inst, action: FaultAction, now: float) -> None:
        """Destroy the store; schedule an in-place rebuild."""
        inst.checkpointer.crash()
        self.n_crashes += 1
        insort(self._recoveries, (now + action.duration, inst.side,
                                  inst.instance_id, "restart", now))
        self.log.append((now, f"crash {inst.side}{inst.instance_id} "
                              f"(restart at t={now + action.duration:.3f}s)"))
        obs = runtime.obs
        if obs is not None:
            obs.on_crash(now, inst.side, inst.instance_id, "crash",
                         action.duration)

    def _failover(self, runtime, inst, action: FaultAction, now: float) -> None:
        """Kill the instance and hand its reconstructed state to the
        lightest surviving peer through the migration overlay machinery.

        The transfer is recorded as a :class:`MigrationEvent` with
        ``reason="failover"`` — the same record a planned migration
        produces — so the differential harness replays it into the exact
        oracle and metrics stay bit-deterministic.
        """
        side = inst.side
        group = runtime.dispatcher.groups[side]
        alive = [
            peer for peer in group
            if peer is not inst and not peer.checkpointer.crashed
        ]
        if not alive:
            # Everyone else is down too: degrade to an in-place restart.
            self.log.append((now, f"failover {side}{inst.instance_id} "
                                  "degraded to restart: no alive peer"))
            self._crash(runtime, inst, action, now)
            return
        survivor = min(
            alive, key=lambda p: (p.store.total + len(p.queue), p.instance_id)
        )
        ckptr = inst.checkpointer
        # Reconstruct the crash-time store exactly as a restart would —
        # from checkpoint + WAL, never from the (about to be destroyed)
        # live store — then drain the durable queue into the transfer.
        rebuilt = ckptr.rebuild_counts()
        ckptr.crash()
        queued = inst.queue.clear()
        n_moved = sum(rebuilt.values()) + len(queued)
        duration = self.recovery_cost.duration(n_moved)
        # In-flight tuples become visible at the survivor only once the
        # hand-off completes — the migration protocol's ordering rule.
        if len(queued):
            queued.times = np.maximum(queued.times, now + duration)
        survivor.accept_migration(rebuilt, queued)
        survivor.pause_until(now + duration)
        survivor.note_pause(now, now + duration, "recovery")
        routing = runtime.dispatcher.routing[side]
        keys = set(rebuilt) | set(np.unique(queued.keys).tolist())
        keys.update(
            k for k, t in routing.overrides_snapshot().items()
            if t == inst.instance_id
        )
        key_tuple = tuple(sorted(int(k) for k in keys))
        routing.install(key_tuple, survivor.instance_id)
        survivor.sync_checkpoint(now)
        event = MigrationEvent(
            time=now,
            side=side,
            source=inst.instance_id,
            target=survivor.instance_id,
            n_keys=len(key_tuple),
            n_tuples=n_moved,
            duration=duration,
            li_before=0.0,
            li_after_estimate=0.0,
            keys=key_tuple,
            reason="failover",
        )
        runtime.metrics.record_migration(event)
        self.n_crashes += 1
        self.n_failovers += 1
        insort(self._recoveries, (now + action.duration, side,
                                  inst.instance_id, "rejoin", now))
        self.log.append((now, f"failover {side}{inst.instance_id} -> "
                              f"{side}{survivor.instance_id} "
                              f"({n_moved} tuples, {len(key_tuple)} keys)"))
        obs = runtime.obs
        if obs is not None:
            obs.on_crash(now, side, inst.instance_id, "failover",
                         action.duration)
            obs.on_recovery(now, side, inst.instance_id, "failover",
                            n_moved, duration, target=survivor.instance_id)

    # -- recovery paths -------------------------------------------------- #

    def _recover(self, runtime, side: str, idx: int, mode: str, now: float,
                 crashed_at: float) -> None:
        group = runtime.dispatcher.groups[side]
        if idx >= len(group):
            # The elastic controller retired this instance mid-outage (a
            # crashed elastic instance is drained from checkpoint + WAL
            # before retirement), so there is nothing left to recover.
            self.log.append(
                (now, f"skipped recover {side}{idx}: instance retired")
            )
            return
        inst = group[idx]
        if mode == "restart":
            n_restored = inst.checkpointer.recover_restart(now)
            duration = self.recovery_cost.duration(n_restored)
        else:
            # Rejoin empty after a failover: the state lives at the peer;
            # only never-seen keys still hash here.
            inst.checkpointer.recover_empty(now)
            n_restored = 0
            duration = self.recovery_cost.duration(0)
        inst.pause_until(now + duration)
        # Tuples that sat in the durable queue through the outage waited
        # from the crash instant to the end of the restore: the whole
        # window is recovery-pause latency, not queueing.
        inst.note_pause(crashed_at, now + duration, "recovery")
        self.n_recoveries += 1
        self.log.append((now, f"recover {side}{idx} ({mode}, "
                              f"{n_restored} tuples, {duration:.3f}s)"))
        obs = runtime.obs
        if obs is not None:
            obs.on_recovery(now, side, idx, mode, n_restored, duration)

    # ------------------------------------------------------------------ #
    # lazy consumption sites
    # ------------------------------------------------------------------ #

    def dispatch_extra_delay(self, stream: str, now: float, tick_index: int) -> float:
        """Extra delivery delay for this tick's batch of ``stream``.

        Consumes every due ``delay``/``drop`` action for the stream; both
        shift the whole batch's visible time atomically (ordered-channel
        semantics), which can never reorder same-key FIFO service.
        """
        pending = self._pending_batch[stream]
        total = 0.0
        while pending and pending[0].at <= now:
            action = pending.pop(0)
            total += action.duration
            self.n_batch_faults += 1
            self.log.append((now, f"{action.kind} {stream} batch "
                                  f"+{action.duration:.3f}s"))
        if total:
            self._delay_log[(tick_index, stream)] = total
        return total

    def applied_delay(self, tick_index: int, stream: str) -> float:
        """What :meth:`dispatch_extra_delay` charged at a given tick
        (the differential harness mirrors this into the oracle)."""
        return self._delay_log.get((tick_index, stream), 0.0)

    def migration_abort(self, side: str, now: float, phase: str) -> FaultAction | None:
        """Consume an armed abort for this side/phase, if one is due.

        Called by :meth:`MigrationExecutor.execute` at each protocol
        phase boundary; the action's ``phase`` picks which boundary
        consumes it.
        """
        for i, action in enumerate(self._pending_aborts):
            if action.side == side and action.phase == phase and action.at <= now:
                del self._pending_aborts[i]
                self.n_aborts += 1
                self.log.append((now, f"abort {side} migration at {phase}"))
                return action
        return None

    # ------------------------------------------------------------------ #

    def summary(self) -> dict:
        """Counters plus any actions that never fired (for reports)."""
        unfired = (
            len(self._pending_kills) + len(self._pending_aborts)
            + sum(len(v) for v in self._pending_batch.values())
        )
        return {
            "n_crashes": self.n_crashes,
            "n_failovers": self.n_failovers,
            "n_recoveries": self.n_recoveries,
            "n_checkpoints": self.n_checkpoints,
            "n_aborts": self.n_aborts,
            "n_batch_faults": self.n_batch_faults,
            "n_unfired": unfired,
        }

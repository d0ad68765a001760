"""The elasticity controller: applies an :class:`ElasticPolicy` to a live
runtime.

Attached via :meth:`StreamJoinRuntime.attach_elastic`, the controller is
evaluated at monitor cadence (``monitor_period``), *after* the monitors
have ticked, and:

1. fires due scheduled ``at`` events in ``(time, spec)`` order;
2. evaluates reactive rules against two signals — the worst per-side
   degree of load imbalance (Eq. 2, straight from the monitors' load
   tables) and the normalised backlog — firing a rule only once its
   condition has held continuously for its ``hold`` window.

**Scale-out** appends fresh :class:`~repro.join.instance.JoinInstance`\\ s
(empty store, durable queue) with sequential ids to both biclique sides,
grows the routing tables (version bump → the dispatcher's route cache
invalidates itself), wires observability / checkpointing / result
tracking to match the existing group, and then seeds each new instance
from the heaviest live donor through the *standard* migration protocol
(:meth:`MigrationExecutor.execute` with ``reason="scaleout"``) — so every
hand-off is recorded as a :class:`~repro.engine.metrics.MigrationEvent`
the differential harness auto-replays into the exact oracle.

**Scale-in** retires elastic instances LIFO (never below the base group,
so instance ids always equal group indices — the invariant the monitor's
table indexing relies on).  A departing instance is drained by *reverse
migration*: every key it owns (stored, queued, or merely routed to it)
goes back to its hash-default home, the routing overrides are removed,
the receiving home is paused and the pause attributed as
``migration_pause``, and one ``reason="scalein"`` MigrationEvent per
destination records the hand-off.  A crashed departing instance is
drained from its checkpoint + WAL, exactly like a failover.

Everything is a pure function of (config, seed): the controller holds no
RNG, all decisions derive from simulated time and deterministic state, so
the same spec reproduces bit-identical metrics under any ``--jobs``
fan-out.
"""

from __future__ import annotations

import numpy as np

from ..core.migration import MigrationCostModel
from ..engine.metrics import MigrationEvent
from ..engine.rng import hash_to_instance
from ..errors import ConfigError, MigrationError
from ..join.dispatcher import DispatchDelay
from ..join.instance import JoinInstance
from ..join.window import WindowedStore
from .policy import ElasticPolicy

__all__ = ["ElasticController"]


class ElasticController:
    """Applies one :class:`ElasticPolicy` to one runtime, deterministically."""

    def __init__(self, policy: ElasticPolicy, config) -> None:
        self.policy = policy
        self.config = config
        self.period = float(config.monitor_period)
        if self.period <= 0:
            raise ConfigError(f"period must be positive, got {self.period}")
        self.cost_model = MigrationCostModel(
            fixed=config.migration_fixed,
            per_key=config.migration_per_key,
            per_tuple=config.migration_per_tuple,
        )
        self.runtime = None
        self.base_n = 0
        self._latency_offset = 0.0
        self._next_eval = self.period
        self._cooldown_until = 0.0
        self._scheduled = policy.scheduled()
        self._rules = policy.rules()
        #: per-rule time its condition first became continuously true
        self._hold_since: list[float | None] = [None] * len(self._rules)
        #: chronological human-readable record of everything that fired
        self.log: list[tuple[float, str]] = []
        self.n_scaleouts = 0
        self.n_scaleins = 0
        self.n_provisioned = 0
        self.n_retired = 0
        self.n_deferred = 0

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def bind(self, runtime) -> None:
        """Validate the policy against the wired system and attach state.

        Elastic scaling needs content-based partitioning (keys reach the
        above-base instances only through routing overrides), an active
        balancing monitor per side (the seeding hand-off reuses its
        selector and executor), and full-history stores (retirement
        drains through the same count-level machinery migrations use).
        """
        groups = runtime.dispatcher.groups
        if len(groups["R"]) != len(groups["S"]):
            raise ConfigError(
                "elastic scaling requires symmetric biclique sides, got "
                f"{len(groups['R'])}R/{len(groups['S'])}S"
            )
        self.base_n = len(groups["R"])
        for side in ("R", "S"):
            if not runtime.dispatcher.partitioners[side].content_based:
                raise ConfigError(
                    "elastic scaling requires content-based partitioning: "
                    "new instances are reachable only through routing "
                    f"overrides, undefined for side {side}'s randomised "
                    "routing"
                )
            monitor = runtime.monitors[side]
            if monitor.executor is None or monitor.selector is None:
                raise ConfigError(
                    "elastic scaling requires an active balancing monitor "
                    f"on side {side} (its selector/executor seed new "
                    "instances); baselines cannot scale"
                )
        for inst in runtime.instances:
            if isinstance(inst.store, WindowedStore):
                raise ConfigError(
                    "elastic scaling requires full-history stores; a "
                    "windowed store's sub-window ages cannot survive the "
                    "count-level drain (disable elastic or window_subwindows)"
                )
        self.policy.validate(self.base_n)
        # New instances get the same end-to-end latency offset as the base
        # group: the network-delay model is resolved once against the base
        # size (the dispatcher pre-resolves its per-side delay the same
        # way), keeping the run a pure function of (config, seed).
        self._latency_offset = DispatchDelay(
            base=self.config.dispatch_delay_base,
            per_instance=self.config.dispatch_delay_per_instance,
        ).delay(self.base_n)
        self.runtime = runtime

    # ------------------------------------------------------------------ #
    # per-tick evaluation (runtime.step, after the monitors)
    # ------------------------------------------------------------------ #

    def tick(self, runtime, now: float) -> None:
        """Evaluate the policy when the monitor cadence is due."""
        if now < self._next_eval:
            return
        while self._next_eval <= now:
            self._next_eval += self.period
        while self._scheduled and self._scheduled[0].at <= now:
            action = self._scheduled[0]
            result = self._apply(runtime, now, action.count, action.spec)
            if result is None:
                # Deferred (a drain destination is down): retry at the
                # next evaluation instead of dropping the event.
                self.n_deferred += 1
                break
            self._scheduled.pop(0)
        if not self._rules:
            return
        li, backlog = self._signals(runtime)
        for i, rule in enumerate(self._rules):
            if rule.kind == "scaleout":
                condition = li > rule.threshold
            else:
                condition = backlog < rule.threshold
            if not condition:
                self._hold_since[i] = None
                continue
            if self._hold_since[i] is None:
                self._hold_since[i] = now
            if now - self._hold_since[i] < rule.hold:
                continue
            if now < self._cooldown_until:
                continue
            count = rule.count if rule.kind == "scaleout" else -rule.count
            if self._apply(runtime, now, count, rule.spec):
                # Fired: the condition must re-sustain before refiring.
                self._hold_since[i] = None

    def _signals(self, runtime) -> tuple[float, float]:
        """(worst per-side LI, normalised backlog) at this evaluation."""
        li = 1.0
        for monitor in runtime.monitors.values():
            if len(monitor.table):
                li = max(li, monitor.table.imbalance())
        instances = runtime.instances
        mean_q = (
            sum(len(inst.queue) for inst in instances) / len(instances)
            if instances else 0.0
        )
        cap = self.config.backpressure_max_queue
        backlog = mean_q / cap if cap else mean_q
        return li, backlog

    # ------------------------------------------------------------------ #
    # scaling actions
    # ------------------------------------------------------------------ #

    def _apply(self, runtime, now: float, count: int, trigger: str):
        """Dispatch one action.  Returns True (scaled), False (no-op) or
        None (deferred — retry at the next evaluation)."""
        if count > 0:
            return self._scale_out(runtime, now, count, trigger)
        return self._scale_in(runtime, now, -count, trigger)

    def _scale_out(self, runtime, now: float, count: int, trigger: str) -> bool:
        obs = runtime.obs
        max_duration = 0.0
        for side in ("R", "S"):
            group = runtime.dispatcher.groups[side]
            monitor = runtime.monitors[side]
            fresh: list[JoinInstance] = []
            for _ in range(count):
                inst = JoinInstance(
                    instance_id=len(group),
                    side=side,
                    capacity=self.config.capacity,
                    cost_model=self.config.cost_model,
                    window_subwindows=None,
                    backlog_smoothing_tau=self.config.load_smoothing_tau,
                    latency_offset=self._latency_offset,
                )
                if obs is not None:
                    inst.obs = obs
                if runtime.faults is not None:
                    # The group opted in to fault tolerance: the newcomer
                    # checkpoints like everyone else from its first tick.
                    from ..faults.checkpoint import InstanceCheckpointer

                    inst.attach_checkpointer(InstanceCheckpointer(inst))
                if group and group[0].result_tracking:
                    inst.enable_result_tracking()
                group.append(inst)
                fresh.append(inst)
            # Overrides may now target the new ids; the version bump
            # invalidates the dispatcher's cached route arrays.  Hash
            # defaults keep covering only the base group, so keys reach
            # elastic instances exclusively through overrides.
            runtime.dispatcher.routing[side].grow(len(group))
            donors_pool = group[: len(group) - count]
            for inst in fresh:
                donors = [p for p in donors_pool if not p.crashed]
                if not donors:
                    continue  # everyone is down; the newcomer starts empty
                donor = max(
                    donors,
                    key=lambda p: (p.store.total + len(p.queue),
                                   -p.instance_id),
                )
                li_before = (
                    monitor.table.imbalance() if len(monitor.table) else 1.0
                )
                event = monitor.executor.execute(
                    now, side, donor, inst, monitor.selector,
                    li_before=li_before, reason="scaleout",
                )
                if event is not None:
                    runtime.metrics.record_migration(event)
                    max_duration = max(max_duration, event.duration)
        runtime.refresh_instances()
        self.n_scaleouts += 1
        self.n_provisioned += 2 * count
        self._cooldown_until = max(
            self._cooldown_until,
            now + max(self.config.monitor_cooldown, max_duration),
        )
        n_per_side = len(runtime.dispatcher.groups["R"])
        runtime.metrics.record_instance_count(now, n_per_side)
        self.log.append(
            (now, f"scaleout +{count}/side -> {n_per_side} ({trigger})")
        )
        if obs is not None:
            obs.on_scale(now, "scaleout", count, n_per_side, trigger)
        return True

    def _scale_in(self, runtime, now: float, count: int, trigger: str):
        groups = runtime.dispatcher.groups
        n_now = len(groups["R"])
        k = min(count, n_now - self.base_n)
        if k <= 0:
            self.log.append(
                (now, f"scalein -{count} skipped: at base group ({trigger})")
            )
            return False
        # Plan every drain before mutating anything, so a deferral leaves
        # the system untouched.  Merging state into a crashed home would
        # land outside its checkpoint + WAL and be lost by the rebuild, so
        # any down destination defers the whole action.
        plans: list[tuple[str, JoinInstance, list[tuple[int, list[int]]]]] = []
        for side in ("R", "S"):
            group = groups[side]
            routing = runtime.dispatcher.routing[side]
            for victim in group[n_now - k:]:
                homes = self._group_by_home(side, self._owned_keys(victim, routing))
                for home_id, _ in homes:
                    if group[home_id].crashed:
                        self.log.append((
                            now,
                            f"scalein {trigger} deferred: home "
                            f"{side}{home_id} is down",
                        ))
                        return None
                plans.append((side, victim, homes))
        max_duration = 0.0
        for side, victim, homes in plans:
            max_duration = max(
                max_duration, self._drain(runtime, side, victim, homes, now)
            )
        for side in ("R", "S"):
            group = groups[side]
            monitor = runtime.monitors[side]
            for _ in range(k):
                victim = group.pop()
                # Purge the stale load-table row, or the monitor could
                # select a retired instance as heaviest/lightest.
                monitor.table.discard(victim.instance_id)
                # Keep the husk: its lifetime counters and result tallies
                # still count toward conservation and differential totals.
                runtime.retired[side].append(victim)
        runtime.refresh_instances()
        self.n_scaleins += 1
        self.n_retired += 2 * k
        self._cooldown_until = max(
            self._cooldown_until,
            now + max(self.config.monitor_cooldown, max_duration),
        )
        n_per_side = len(groups["R"])
        runtime.metrics.record_instance_count(now, n_per_side)
        self.log.append(
            (now, f"scalein -{k}/side -> {n_per_side} ({trigger})")
        )
        if runtime.obs is not None:
            runtime.obs.on_scale(now, "scalein", k, n_per_side, trigger)
        return True

    # -- drain protocol -------------------------------------------------- #

    def _owned_keys(self, victim: JoinInstance, routing) -> set[int]:
        """Every key the victim is responsible for.

        Elastic ids are never hash defaults (hashing covers only the base
        group), so every key with state at the victim has an override
        pointing there — the overrides are a superset of the stored and
        queued key sets.  The union is taken anyway as a belt-and-braces
        guard; the post-drain empty-queue check would catch a violation.
        """
        if victim.crashed:
            stored, _ = victim.checkpointer.rebuild_arrays()
        else:
            stored, _ = victim.store.nonzero_counts()
        keys = {
            int(k) for k, t in routing.overrides_snapshot().items()
            if t == victim.instance_id
        }
        keys.update(stored.tolist())
        return keys

    def _group_by_home(
        self, side: str, keys: set[int]
    ) -> list[tuple[int, list[int]]]:
        """Partition keys by hash-default home over the *base* group."""
        if not keys:
            return []
        arr = np.array(sorted(keys), dtype=np.int64)
        homes = hash_to_instance(arr, self.base_n)
        out: dict[int, list[int]] = {}
        for k, h in zip(arr.tolist(), homes.tolist()):
            out.setdefault(int(h), []).append(int(k))
        return sorted(out.items())

    def _drain(
        self,
        runtime,
        side: str,
        victim: JoinInstance,
        homes: list[tuple[int, list[int]]],
        now: float,
    ) -> float:
        """Reverse-migrate everything the victim owns back to hash homes.

        One migration (pause, transfer, reroute, event) per destination;
        removing the overrides — rather than re-installing them at the
        home — is what makes a symmetric scale-out → scale-in round trip
        converge to the never-scaled routing state.
        """
        routing = runtime.dispatcher.routing[side]
        group = runtime.dispatcher.groups[side]
        obs = runtime.obs
        crashed = victim.crashed
        rebuilt = victim.checkpointer.rebuild_counts() if crashed else None
        max_duration = 0.0
        for home_id, keys in homes:
            key_set = set(keys)
            stored, queued = victim.extract_for_migration(key_set)
            if crashed:
                # The live store was destroyed by the crash: reconstruct
                # the hand-off from checkpoint + WAL, like a failover.
                stored = {k: rebuilt[k] for k in keys if rebuilt.get(k)}
            home = group[home_id]
            n_moved = sum(stored.values()) + len(queued)
            duration = self.cost_model.duration(len(keys), n_moved)
            # In-flight tuples become visible at the home only once the
            # hand-off completes — the migration protocol's ordering rule.
            if len(queued):
                queued.times = np.maximum(queued.times, now + duration)
            home.accept_migration(stored, queued)
            home.pause_until(now + duration)
            home.note_pause(now, now + duration, "migration")
            routing.remove(key_set)
            home.sync_checkpoint(now)
            event = MigrationEvent(
                time=now,
                side=side,
                source=victim.instance_id,
                target=home_id,
                n_keys=len(keys),
                n_tuples=n_moved,
                duration=duration,
                li_before=0.0,
                li_after_estimate=0.0,
                keys=tuple(keys),
                reason="scalein",
            )
            runtime.metrics.record_migration(event)
            if obs is not None:
                obs.on_migration(
                    event, self.cost_model.breakdown(len(keys), n_moved), 0.0
                )
            max_duration = max(max_duration, duration)
        if len(victim.queue):
            raise MigrationError(
                f"scale-in drain left {len(victim.queue)} tuples queued at "
                f"{side}{victim.instance_id}: a queued key had no routing "
                "override (violates the elastic ownership invariant)"
            )
        return max_duration

    # ------------------------------------------------------------------ #

    def summary(self) -> dict:
        """Counters plus any scheduled events that never fired."""
        return {
            "n_scaleouts": self.n_scaleouts,
            "n_scaleins": self.n_scaleins,
            "n_provisioned": self.n_provisioned,
            "n_retired": self.n_retired,
            "n_deferred": self.n_deferred,
            "n_unfired": len(self._scheduled),
        }

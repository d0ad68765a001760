"""Runtime invariant guards for the stream-join engine.

Each guard encodes one property the paper's design argues can never be
violated, no matter how migrations interleave with the datapath:

- **conservation** — every tuple the dispatcher sent to a biclique side is
  either already applied (served store / served probe) or still queued at
  exactly one instance of that side.  Migration moves queued tuples
  between instances but never creates or destroys them (Algorithm 2's
  "temporary queue", section III-D).
- **colocation** — after a migration commits, no key's stored tuples are
  split across two instances of one side, and every stored key sits on the
  instance the routing table currently resolves it to (section III-D
  updates routing *last* precisely so this holds at every quiescent
  point).  Only checked for content-based partitioners; ContRand smears
  keys by design.
- **monotone clock** — simulated time strictly increases tick over tick.
- **non-negative load** — ``|R_i| >= 0``, ``phi_si >= 0`` and therefore
  ``L_i = |R_i| * phi_si >= 0`` (Eq. 1 is a product of counts).
- **LI bounds** — the degree of load imbalance (Eq. 2) is a max/min ratio
  and must be ``>= 1`` and finite.
- **hysteresis** — migrations of one group are spaced at least the
  monitor's cooldown apart and only ever trigger above ``Theta``
  (section III-B: migrations "can never take place frequently").
  Failover hand-offs (``MigrationEvent.reason != "balance"``) are exempt:
  they fire at crash time, not at the monitor's discretion.
- **recovery** — when fault injection is attached, replaying each
  instance's write-ahead log on top of its last checkpoint reproduces the
  live store exactly — i.e. a crash at this very tick would restore the
  correct state (DESIGN §6).  Skipped for fault-free runs.
- **attribution** — the latency accounting identity (DESIGN §5): for
  every second with recorded latencies, the collector's component sums
  satisfy ``fsum(queue_wait, service, migration_pause, recovery_pause)
  == latency_sum`` *bit-exactly* (exact summation — see
  :mod:`repro.attribution`), the measured components are finite and
  non-negative, and the queue-wait residual is non-negative up to float
  rounding.

Guards are *opt-in* (``runtime.attach_guards(InvariantGuards(...))``) and
cost nothing when not attached; O(state) checks run every
``GuardConfig.period`` ticks.  A violated guard raises a structured
:class:`~repro.errors.ValidationError` carrying the run's seed and tick so
the failure replays deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from ..attribution import reconstruct
from ..errors import StorageError, ValidationError

__all__ = [
    "ColocationViolation",
    "GuardConfig",
    "InvariantGuards",
    "first_colocation_violation",
]

#: slack for float comparisons on times and EWMA'd loads
_EPS = 1e-9


class ColocationViolation(NamedTuple):
    """The first key whose storage breaks colocation.

    Exactly one of ``other_instance`` (the key is split: it is also stored
    on that earlier instance) and ``expected_instance`` (the key is whole
    but routing resolves it elsewhere) is set.
    """

    key: int
    instance: int
    other_instance: int | None = None
    expected_instance: int | None = None


def first_colocation_violation(
    group, route: Callable[[np.ndarray], np.ndarray]
) -> ColocationViolation | None:
    """Check one instance group's storage against colocation.

    ``group`` is a sequence of instances with ``instance_id`` and a store
    offering ``nonzero_counts()``; ``route`` maps a key array to the
    instance each key is routed to.  The group is scanned in order, keys
    ascending within an instance: the first key met on a second instance
    is a split; if none is split, the first key stored away from its
    routed instance is misrouted.  Split storage is reported before any
    misrouting.
    """
    per_instance = [inst.store.nonzero_counts()[0] for inst in group]
    keys = np.concatenate(per_instance) if per_instance else np.empty(0, np.int64)
    if keys.shape[0] == 0:
        return None
    holders = np.repeat(
        np.array([inst.instance_id for inst in group], dtype=np.int64),
        [k.shape[0] for k in per_instance],
    )
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeated = order[1:][sorted_keys[1:] == sorted_keys[:-1]]
    if repeated.shape[0]:
        # a stable sort keeps scan order within a key, so the earliest
        # repeat in scan order is some key's second occurrence
        pos = int(repeated.min())
        first = int(order[np.searchsorted(sorted_keys, keys[pos])])
        return ColocationViolation(
            key=int(keys[pos]),
            instance=int(holders[pos]),
            other_instance=int(holders[first]),
        )
    expected = route(keys)
    wrong = np.flatnonzero(expected != holders)
    if wrong.shape[0] == 0:
        return None
    pos = int(wrong[0])
    return ColocationViolation(
        key=int(keys[pos]),
        instance=int(holders[pos]),
        expected_instance=int(expected[pos]),
    )


@dataclass(frozen=True)
class GuardConfig:
    """Which guards run, and how often the O(state) ones do.

    ``period`` throttles the expensive checks (conservation, colocation,
    deep counter recounts) to every N-th tick; the cheap per-tick checks
    (clock monotonicity, migration hysteresis) always run.
    """

    conservation: bool = True
    colocation: bool = True
    monotone_clock: bool = True
    nonnegative_load: bool = True
    li_bounds: bool = True
    hysteresis: bool = True
    deep_consistency: bool = True
    recovery: bool = True
    attribution: bool = True
    period: int = 1

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")


class InvariantGuards:
    """Per-tick invariant checking bound to one :class:`StreamJoinRuntime`.

    Parameters
    ----------
    seed:
        Root seed of the run, embedded in raised errors for replay.
    config:
        Which checks to run (all, by default).
    context:
        Extra structured context merged into every raised error — the
        differential harness passes ``{"system": ..., "workload": ...,
        "ticks": ...}`` so the error can render a replay command.
    """

    def __init__(
        self,
        seed: int | None = None,
        config: GuardConfig | None = None,
        context: dict | None = None,
    ) -> None:
        self.seed = seed
        self.config = config if config is not None else GuardConfig()
        self.context = dict(context) if context else {}
        self.checks_run = 0
        self.violations = 0
        self._runtime = None
        self._last_now = -math.inf
        self._seen_migrations = 0
        self._last_migration_time: dict[str, float] = {}

    # ------------------------------------------------------------------ #

    def describe(self) -> dict:
        """Which guards run, for run metadata: the enabled checks
        (comma-joined, in :class:`GuardConfig` order) and their period."""
        cfg = self.config
        names = [
            f.name for f in fields(cfg)
            if f.name != "period" and getattr(cfg, f.name)
        ]
        return {"guards": ",".join(names) or "none",
                "guard_period": cfg.period}

    def bind(self, runtime) -> None:
        """Called by ``runtime.attach_guards``; remembers the runtime."""
        self._runtime = runtime
        self._last_now = -math.inf

    def _fail(self, invariant: str, message: str, **extra) -> None:
        self.violations += 1
        runtime = self._runtime
        context = dict(self.context)
        context.update(extra)
        obs = getattr(runtime, "obs", None)
        if obs is not None:
            # Record the violation in the trace *before* raising, so the
            # event stream (and the error's trailing-event context) ends
            # with the failure itself.
            obs.on_guard_violation(
                runtime.clock.now,
                invariant,
                message,
                tick=runtime.tick_index,
            )
        raise ValidationError(
            message,
            invariant=invariant,
            seed=self.seed,
            tick=runtime.tick_index if runtime is not None else None,
            context=context,
        )

    # ------------------------------------------------------------------ #
    # the hook the runtime calls
    # ------------------------------------------------------------------ #

    def after_tick(self, runtime, now: float) -> None:
        """Run the enabled checks for the tick that just ended at ``now``."""
        cfg = self.config
        self.checks_run += 1
        if cfg.monotone_clock:
            self.check_monotone_clock(now)
        if cfg.hysteresis:
            self.check_hysteresis(runtime)
        if runtime.tick_index % cfg.period == 0:
            if cfg.nonnegative_load:
                self.check_nonnegative_load(runtime)
            if cfg.li_bounds:
                self.check_li_bounds(runtime)
            if cfg.conservation:
                self.check_conservation(runtime)
            if cfg.colocation:
                self.check_colocation(runtime)
            if cfg.deep_consistency:
                self.check_deep_consistency(runtime)
            if cfg.recovery and getattr(runtime, "faults", None) is not None:
                self.check_recovery(runtime)
            if cfg.attribution:
                self.check_attribution(runtime)

    # ------------------------------------------------------------------ #
    # individual checks (public so tests can violate + fire them directly)
    # ------------------------------------------------------------------ #

    def check_monotone_clock(self, now: float) -> None:
        """Simulated time must strictly increase between ticks."""
        if now <= self._last_now:
            self._fail(
                "monotone-clock",
                f"tick ended at t={now} but a previous tick already ended "
                f"at t={self._last_now}",
                now=now,
                previous=self._last_now,
            )
        self._last_now = now

    def check_nonnegative_load(self, runtime) -> None:
        """Eq. 1 terms: ``|R_i| >= 0`` and ``phi_si >= 0`` everywhere."""
        for inst in runtime.instances:
            snap = inst.snapshot()
            if snap.stored < 0 or not math.isfinite(float(snap.stored)):
                self._fail(
                    "nonnegative-load",
                    f"instance {inst.instance_id}/{inst.side} reports "
                    f"|R_i|={snap.stored}",
                    side=inst.side,
                    instance=inst.instance_id,
                )
            if snap.backlog < 0 or not math.isfinite(float(snap.backlog)):
                self._fail(
                    "nonnegative-load",
                    f"instance {inst.instance_id}/{inst.side} reports "
                    f"phi_si={snap.backlog}",
                    side=inst.side,
                    instance=inst.instance_id,
                )

    def check_li_bounds(self, runtime) -> None:
        """Eq. 2: LI is a max/min ratio, so ``LI >= 1`` and finite."""
        for side, monitor in runtime.monitors.items():
            if not monitor.li_history:
                continue
            t, li = monitor.li_history[-1]
            if li < 1.0 - _EPS or not math.isfinite(li):
                self._fail(
                    "li-bounds",
                    f"monitor {side} sampled LI={li} at t={t} "
                    "(Eq. 2 requires LI >= 1)",
                    side=side,
                    li=li,
                )

    def check_conservation(self, runtime) -> None:
        """Dispatched == applied + queued, per side and operation kind.

        ``JoinInstance.total_stored`` / ``total_probed`` are lifetime
        counters unaffected by migration and window eviction, so the
        balance holds for every system and window mode.
        """
        stats = runtime.dispatcher.stats
        for side, group in runtime.dispatcher.groups.items():
            # Elastically retired instances are drained but their lifetime
            # served counters still account for work dispatched to them.
            members = list(group) + list(runtime.retired[side])
            served_stores = sum(inst.total_stored for inst in members)
            served_probes = sum(inst.total_probed for inst in members)
            queued_probes = sum(inst.queue.probe_backlog for inst in members)
            queued_stores = sum(
                len(inst.queue) - inst.queue.probe_backlog for inst in members
            )
            sent_stores = stats.stores_to_side[side]
            sent_probes = stats.probes_to_side[side]
            if served_stores + queued_stores != sent_stores:
                self._fail(
                    "conservation",
                    f"side {side}: {sent_stores} store ops dispatched but "
                    f"{served_stores} applied + {queued_stores} queued "
                    f"= {served_stores + queued_stores}",
                    side=side,
                    kind="store",
                )
            if served_probes + queued_probes != sent_probes:
                self._fail(
                    "conservation",
                    f"side {side}: {sent_probes} probe ops dispatched but "
                    f"{served_probes} applied + {queued_probes} queued "
                    f"= {served_probes + queued_probes}",
                    side=side,
                    kind="probe",
                )

    def check_colocation(self, runtime) -> None:
        """No key's stored tuples split across instances; storage follows
        routing.  Skipped for non-content-based partitioners (ContRand
        smears keys across a subgroup by design)."""
        for side, group in runtime.dispatcher.groups.items():
            part = runtime.dispatcher.partitioners[side]
            if not part.content_based:
                continue
            routing = runtime.dispatcher.routing[side]
            found = first_colocation_violation(
                group,
                lambda keys: routing.apply(keys, part.store_targets(keys, None)),
            )
            if found is None:
                continue
            if found.other_instance is not None:
                self._fail(
                    "colocation",
                    f"side {side}: key {found.key} stored on instances "
                    f"{found.other_instance} and {found.instance} "
                    "simultaneously",
                    side=side,
                    key=found.key,
                    instance=found.instance,
                    other_instance=found.other_instance,
                    routing_epoch=routing.version,
                )
            self._fail(
                "colocation",
                f"side {side}: key {found.key} stored on instance "
                f"{found.instance} but routes to {found.expected_instance}",
                side=side,
                key=found.key,
                instance=found.instance,
                expected_instance=found.expected_instance,
                routing_epoch=routing.version,
            )

    def check_hysteresis(self, runtime) -> None:
        """New migrations respect ``Theta`` and the monitor cooldown."""
        events = runtime.metrics.migration_events()
        for event in events[self._seen_migrations:]:
            if getattr(event, "reason", "balance") != "balance":
                # A failover hand-off is not a monitor decision: it fires
                # at the crash time regardless of Theta or cooldown, and
                # must not count as the reference point for spacing the
                # monitor's own migrations either.
                continue
            monitor = runtime.monitors.get(event.side)
            if monitor is not None and monitor.theta is not None:
                if event.li_before <= monitor.theta + _EPS:
                    self._fail(
                        "hysteresis",
                        f"migration on side {event.side} at t={event.time} "
                        f"triggered with LI={event.li_before} <= "
                        f"Theta={monitor.theta}",
                        side=event.side,
                        li=event.li_before,
                        theta=monitor.theta,
                    )
                last = self._last_migration_time.get(event.side)
                if (
                    last is not None
                    and event.time - last < monitor.cooldown - _EPS
                ):
                    self._fail(
                        "hysteresis",
                        f"migrations on side {event.side} at t={last} and "
                        f"t={event.time} are closer than the cooldown "
                        f"{monitor.cooldown}",
                        side=event.side,
                        spacing=event.time - last,
                        cooldown=monitor.cooldown,
                    )
            if event.source == event.target:
                self._fail(
                    "hysteresis",
                    f"migration on side {event.side} at t={event.time} has "
                    f"source == target == {event.source}",
                    side=event.side,
                    instance=event.source,
                )
            self._last_migration_time[event.side] = event.time
        self._seen_migrations = len(events)

    def check_recovery(self, runtime) -> None:
        """Checkpoint + WAL must reconstruct every live store exactly.

        The recovery path's correctness reduces to this standing identity
        (DESIGN §6): at any instant, replaying the write-ahead log on top
        of the last checkpoint yields the live key counts — which is
        precisely what a crash at this tick would restore.  Migrations
        preserve it because the executor re-checkpoints both parties at
        commit; a violation means a crash *here* would lose or invent
        tuples.
        """
        for inst in runtime.instances:
            ckptr = getattr(inst, "checkpointer", None)
            if ckptr is None:
                continue
            problem = ckptr.verify()
            if problem is not None:
                self._fail(
                    "recovery-consistency",
                    f"instance {inst.instance_id}/{inst.side}: {problem}",
                    side=inst.side,
                    instance=inst.instance_id,
                )

    def check_attribution(self, runtime) -> None:
        """The latency-attribution identity, re-verified from the live sums.

        For every second the collector has touched, the exact sum
        ``fsum(queue_wait, service, migration_pause, recovery_pause)``
        must reproduce the recorded latency sum *bit-exactly* (the
        collector closes the queue-wait residual after every tick; this
        check recomputes the sum independently).  The measured components
        must be finite and non-negative — service time and pause overlaps
        are clipped ``>= 0`` at the source — and the residual may dip
        below zero only by float rounding (the per-tuple decomposition
        never exceeds the measured latency in real arithmetic).
        """
        sums = runtime.metrics.component_sums()
        lat = sums["latency"]
        qw = sums["queue_wait"]
        sv = sums["service"]
        mg = sums["migration_pause"]
        rc = sums["recovery_pause"]
        for sec, total in lat.items():
            q = qw.get(sec, 0.0)
            s = sv.get(sec, 0.0)
            m = mg.get(sec, 0.0)
            r = rc.get(sec, 0.0)
            recon = reconstruct(q, s, m, r)
            if recon != total:
                self._fail(
                    "attribution",
                    f"second {sec}: components sum to {recon!r} but the "
                    f"latency sum is {total!r} "
                    f"(qw={q!r}, sv={s!r}, mig={m!r}, rec={r!r})",
                    second=sec,
                    reconstructed=recon,
                    latency_sum=total,
                )
            for name, value in (("service", s), ("migration_pause", m),
                                ("recovery_pause", r)):
                if value < 0.0 or not math.isfinite(value):
                    self._fail(
                        "attribution",
                        f"second {sec}: component {name} = {value!r} "
                        "(must be finite and >= 0)",
                        second=sec,
                        component=name,
                        value=value,
                    )
            # The residual absorbs the (tiny) rounding slack; scale the
            # tolerance with the magnitudes being cancelled.
            slack = _EPS * max(abs(total), s + m + r, 1.0)
            if not math.isfinite(q) or q < -slack:
                self._fail(
                    "attribution",
                    f"second {sec}: queue_wait residual {q!r} is negative "
                    f"beyond rounding slack {slack!r}",
                    second=sec,
                    queue_wait=q,
                    slack=slack,
                )

    def check_deep_consistency(self, runtime) -> None:
        """Recount redundant per-instance counters (store totals, probe
        backlog) and fail on any drift."""
        for inst in runtime.instances:
            try:
                inst.check_consistency()
            except StorageError as exc:
                self._fail(
                    "deep-consistency",
                    str(exc),
                    side=inst.side,
                    instance=inst.instance_id,
                )

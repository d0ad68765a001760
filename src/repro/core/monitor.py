"""The monitoring component (paper section III-A).

One :class:`Monitor` watches one group of join instances.  Periodically it
pulls each instance's two counters (``|R_i|``, ``phi_si``) into its load
information table, computes the degree of load imbalance ``LI`` (Eq. 2),
and — when ``LI`` exceeds the threshold ``Theta`` — instructs the heaviest
and lightest instances to run the migration procedure.

FastJoin instantiates two monitors, one per biclique side; BiStream and
ContRand runs attach a *passive* monitor (``theta=None``) that records LI
without ever migrating, mirroring how the paper added a monitor bolt to
BiStream purely for measurement (section VI-A).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..engine.arena import Arena
from ..engine.metrics import MetricsCollector
from ..errors import ConfigError
from ..join.instance import JoinInstance
from .load_model import LoadInfoTable
from .migration import MigrationExecutor
from .selection.base import KeySelector

__all__ = ["Monitor", "DEFAULT_LI_HISTORY_CAP"]

#: default trailing-sample bound on a monitor's local LI history — a full
#: day at the paper's one-second sampling period, a few MB at most
DEFAULT_LI_HISTORY_CAP = 100_000


class Monitor:
    """Periodic load sampling + migration triggering for one group.

    Parameters
    ----------
    side:
        ``"R"`` or ``"S"`` — which group this monitor watches.
    instances:
        The join instances of the group.
    theta:
        Load-imbalance threshold ``Theta``.  ``None`` makes the monitor
        passive (measure only — used for the baselines).
    selector:
        Key-selection algorithm (GreedyFit / SAFit); required when active.
    executor:
        Migration executor bound to this group's routing table.
    period:
        Sampling period in simulated seconds (paper: statistics are
        reported every second).
    min_heaviest_load:
        Do not trigger migrations while the heaviest load is below this —
        at startup every instance is near-empty and LI is pure noise.
    cooldown:
        Minimum simulated time between consecutive migrations of this
        group, so a migration's effect is observed before re-triggering
        (migrations "can never take place frequently", section III-B).
    li_history_cap:
        Keep only the trailing this-many ``(t, LI)`` samples in
        ``li_history`` (``None`` = unbounded).  The local history exists
        for invariant guards and debugging; the *full* series a bench
        consumes lives in the metrics collector, which receives every
        sample regardless of this cap — so week-long simulated runs do
        not grow the monitor's memory without limit.
    """

    def __init__(
        self,
        side: str,
        instances: list[JoinInstance],
        theta: float | None,
        selector: KeySelector | None = None,
        executor: MigrationExecutor | None = None,
        period: float = 1.0,
        min_heaviest_load: float = 1e4,
        cooldown: float = 2.0,
        metrics: MetricsCollector | None = None,
        li_history_cap: int | None = DEFAULT_LI_HISTORY_CAP,
    ) -> None:
        if side not in ("R", "S"):
            raise ConfigError(f"side must be 'R' or 'S', got {side!r}")
        if len(instances) < 1:
            raise ConfigError("monitor needs at least one instance")
        if theta is not None:
            if theta <= 1.0:
                raise ConfigError(f"theta must exceed 1.0, got {theta}")
            if selector is None or executor is None:
                raise ConfigError("active monitor needs a selector and executor")
        if period <= 0:
            raise ConfigError(f"period must be positive, got {period}")
        if li_history_cap is not None and li_history_cap < 1:
            raise ConfigError(
                f"li_history_cap must be >= 1 when set, got {li_history_cap}"
            )
        self.side = side
        self.instances = instances
        self.theta = theta
        self.selector = selector
        self.executor = executor
        self.period = float(period)
        self.min_heaviest_load = float(min_heaviest_load)
        self.cooldown = float(cooldown)
        self.metrics = metrics
        self.table = LoadInfoTable()
        self._next_sample = self.period
        self._cooldown_until = 0.0
        self.n_migrations = 0
        self.li_history: deque[tuple[float, float]] = deque(maxlen=li_history_cap)
        # Optional observability bundle (repro.obs); one test per sample.
        self.obs = None
        # Grow-only scratch for the periodic sample's load columns.
        self._arena = Arena()

    # ------------------------------------------------------------------ #

    @property
    def active(self) -> bool:
        return self.theta is not None

    def sample(self, now: float) -> float:
        """Refresh the load table from the instances; return current LI.

        The sampled values land directly in arena-backed columns (one
        scalar write per instance) and refresh the table wholesale —
        bit-identical to the historical per-instance ``snapshot()`` path,
        which now only runs when an observer wants the row objects.
        """
        instances = self.instances
        n = len(instances)
        arena = self._arena
        ids = arena.array("mon_ids", n, np.int64)
        stored = arena.array("mon_stored", n, np.int64)
        backlog = arena.array("mon_backlog", n, np.float64)
        for i, inst in enumerate(instances):
            ids[i] = inst.instance_id
            stored[i] = inst.store.total
            backlog[i] = inst.load_backlog()
        self.table.refill(ids, stored, backlog)
        li = self.table.imbalance()
        self.li_history.append((now, li))
        if self.metrics is not None:
            self.metrics.record_li(self.side, now, li)
        if self.obs is not None:
            snapshots = [inst.snapshot() for inst in instances]
            self.obs.on_li_sample(self.side, now, li, snapshots)
        return li

    def tick(self, now: float) -> bool:
        """Called every simulation tick; samples/acts when the period is
        due.  Returns True if a migration was executed this call.
        """
        if now < self._next_sample:
            return False
        # Catch the deadline up past ``now``: one large time step can cross
        # several periods, and advancing by a single period would leave the
        # deadline in the past — producing a burst of back-to-back samples
        # on the following ticks until it caught up (the same bug class as
        # InstanceTracer.maybe_sample).
        while self._next_sample <= now:
            self._next_sample += self.period
        li = self.sample(now)
        if not self.active:
            return False
        if li <= self.theta:
            return False
        if now < self._cooldown_until:
            return False
        heaviest = self.table.heaviest()
        lightest = self.table.lightest()
        if heaviest.load < self.min_heaviest_load:
            return False
        if heaviest.instance == lightest.instance:
            return False
        source = self.instances[heaviest.instance]
        target = self.instances[lightest.instance]
        if source.crashed or target.crashed:
            # A crashed source's state is unreachable, and state migrated
            # into a crashed target would be lost by its rebuild (it is
            # outside the target's checkpoint+WAL).  Balancing defers
            # until the failure is handled; the next period retries.
            return False
        assert self.selector is not None and self.executor is not None
        event = self.executor.execute(
            now, self.side, source, target, self.selector, li_before=li
        )
        if event is None:
            # Selector found nothing movable; back off a little so we do
            # not spin on an unsolvable configuration every period.
            self._cooldown_until = now + self.cooldown
            return False
        self._cooldown_until = now + max(self.cooldown, event.duration)
        self.n_migrations += 1
        if self.metrics is not None:
            self.metrics.record_migration(event)
        return True

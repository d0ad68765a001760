"""Join instances — the worker units of the join-biclique (section III-A).

A :class:`JoinInstance` belongs to one group of the biclique: it *stores*
tuples of one stream and *probes* arriving tuples of the other stream
against that store, emitting join results.  It is simulated as a
work-conserving server: each tick it receives a budget of work units
(``capacity * dt``) and drains its input queue in FIFO order, paying the
cost model's price per operation.  When the store is large, each probe is
expensive (the scan model), so a skew-hot instance falls behind — exactly
the mechanism behind Fig. 1(c)/(d).

The instance also keeps the two counters the paper requires for dynamic
load balancing (section III-A): the number of stored tuples (``|R_i|``)
and the probe backlog (``phi_si``), with per-key breakdowns for GreedyFit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..core.selection.base import SelectionProblem
from ..core.load_model import InstanceLoad
from ..engine.arena import Arena
from ..engine.cost import CostModel, ScanCost
from ..engine.queues import TupleQueue
from ..engine.tuples import OP_STORE, Batch
from ..errors import ConfigError, StorageError
from .service import _count_nonzero, select_kernel, track_results
from .storage import KeyedStore, sorted_union
from .window import WindowedStore

__all__ = ["JoinInstance", "ServiceReport"]


@dataclass
class ServiceReport:
    """What one instance accomplished during one tick.

    The three ``comp_*`` arrays are the measured pieces of the latency
    attribution identity (DESIGN §5): per-tuple service time and per-tuple
    overlap with migration/recovery pauses, aligned with ``latencies``.
    ``comp_migration``/``comp_recovery`` stay None when no pause interval
    can overlap the chunk (the common case) — consumers read None as all
    zeros; ``comp_service`` is None only on idle reports.  Queue wait is not
    reported — it is the residual that closes the identity, derived by the
    metrics collector (:func:`repro.attribution.close_residual`).

    Ownership (DESIGN §9): ``latencies`` and the ``comp_*`` arrays alias
    the producing instance's scratch arena.  They are valid until that
    instance's *next* ``step()``; the metrics collector consumes them
    within the same tick (summing / copying into its reservoir), and any
    consumer that retains them longer must copy.  A non-idle step reuses
    one report object per instance on the same validity schedule — hold
    the fields you need, not the report.
    """

    n_processed: int = 0
    n_stored: int = 0
    n_probed: int = 0
    n_results: float = 0.0
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0))
    work_units: float = 0.0
    comp_service: np.ndarray | None = None
    comp_migration: np.ndarray | None = None
    comp_recovery: np.ndarray | None = None

    @property
    def idle(self) -> bool:
        return self.n_processed == 0


#: Shared report for ticks in which an instance did nothing.  Callers only
#: read reports, so idle steps reuse one instance instead of allocating a
#: dataclass (and its empty latency array) thousands of times per run.
_IDLE_REPORT = ServiceReport()


class JoinInstance:
    """One worker of a join-instance group.

    Parameters
    ----------
    instance_id:
        Index within the group.
    side:
        ``"R"`` if this instance stores stream R (and probes S), else ``"S"``.
    capacity:
        Work units the instance can perform per simulated second.
    cost_model:
        Service-cost model (default: paper-faithful :class:`ScanCost`).
    window_subwindows:
        If given, use a :class:`WindowedStore` with that many sub-windows
        (window-based join, paper section III-E); otherwise full-history.
    """

    def __init__(
        self,
        instance_id: int,
        side: str = "R",
        capacity: float = 50_000.0,
        cost_model: CostModel | None = None,
        window_subwindows: int | None = None,
        max_service_chunk: int = 100_000,
        backlog_smoothing_tau: float = 2.0,
        latency_offset: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity}")
        if side not in ("R", "S"):
            raise ConfigError(f"side must be 'R' or 'S', got {side!r}")
        self.instance_id = int(instance_id)
        self.side = side
        self.capacity = float(capacity)
        self.cost_model = cost_model if cost_model is not None else ScanCost()
        self.cost_model.validate()
        self.store: KeyedStore | WindowedStore
        if window_subwindows is None:
            self.store = KeyedStore()
        else:
            self.store = WindowedStore(window_subwindows)
        # Hot-path binding: the windowed store's match_counts is a pure
        # delegation, so the probe lookup goes straight to the inner keyed
        # store (one call frame per chunk is measurable at tick rate).
        self._match_counts = (
            self.store._store.match_counts
            if isinstance(self.store, WindowedStore)
            else self.store.match_counts
        )
        # Reused per-instance report (DESIGN §9): its arrays alias the
        # arena and are valid until the next step, so the carrier object
        # can be recycled on the same schedule.
        self._report = ServiceReport()
        # Grow-only scratch buffers for the tick loop (DESIGN §9).  The
        # instance owns the arena and shares it with its queue; views it
        # hands out (ServiceReport arrays) stay valid until the next step.
        self._arena = Arena()
        self.queue = TupleQueue(arena=self._arena)
        self._paused_until = 0.0
        self._work_credit = 0.0
        self._max_chunk = int(max_service_chunk)
        # Every operation costs at least this much; the peek bound derives
        # from it.  The cost model is immutable, so resolve it once.
        self._floor_cost = max(
            min(
                self.cost_model.store_cost,
                getattr(self.cost_model, "probe_base", 1.0),
            ),
            1e-9,
        )
        # The per-chunk service kernel (repro.join.service), chosen once:
        # C when the kernels are built and the cost model is exactly one of
        # the two shipped types, numpy otherwise.
        self.service_kernel, self._service = select_kernel(self.cost_model)
        # Exponential moving average of the probe backlog, with time
        # constant tau.  The monitor reads this smoothed value: an
        # instantaneous queue length sampled once a second is a noisy load
        # signal (a healthy instance's queue oscillates through zero every
        # tick), and Eq. 2's max/min ratio amplifies that noise into
        # spurious migrations.  tau <= 0 disables smoothing.
        self._tau = float(backlog_smoothing_tau)
        self._backlog_ewma = 0.0
        # Added to every reported latency: the dispatch/network delay a
        # tuple paid before becoming visible in this queue.  Makes reported
        # latency end-to-end (emission -> join completion), which is what
        # surfaces the paper's Fig. 6 effect — latency growing with the
        # instance count through dispatch/gather communication overhead.
        self.latency_offset = float(latency_offset)
        # lifetime statistics
        self.total_stored = 0
        self.total_probed = 0
        self.total_results = 0.0
        # Opt-in per-key join-result accounting for the differential
        # validation layer (repro.validate); enabling it wraps the kernel.
        self._result_counts: dict[int, float] | None = None
        # Optional observability bundle (repro.obs): the datapath pays one
        # ``is None`` test per served tick when it is absent.
        self.obs = None
        # Tagged pause intervals (start, end, cause) with cause in
        # {"migration", "recovery"}: sorted, non-overlapping, merged when
        # contiguous.  Served tuples attribute the part of their wait that
        # overlaps these intervals to the corresponding component.
        self._pause_log: list[tuple[float, float, str]] = []
        # Optional fault-tolerance state (repro.faults): checkpoint + WAL +
        # crash flag.  None by default; the datapath pays one ``is None``
        # test per tick (and one per stored chunk) when disabled.
        self._ft = None

    # ------------------------------------------------------------------ #
    # data path
    # ------------------------------------------------------------------ #

    def enqueue(self, batch: Batch) -> None:
        """Accept dispatched tuples (queueing continues while paused)."""
        self.queue.push(batch)

    def enqueue_block(self, keys: np.ndarray, time: float, op: int) -> None:
        """Accept one dispatch segment: keys sharing a visible-time and op.

        The batched dispatcher delivers per-destination blocks whose
        metadata is scalar (one tick, one network delay, one operation);
        forwarding the scalars lets the queue broadcast them instead of
        allocating per-tuple arrays.
        """
        self.queue.push_block(keys, time, op)

    @property
    def paused(self) -> bool:
        return self._paused_until > 0.0

    def pause_until(self, t: float) -> None:
        """Suspend store/join processing until simulated time ``t``.

        The migration procedure pauses the source instance while GreedyFit
        runs and tuples are transferred (section III-C: "an instance must
        stop executing the store and join operations").
        """
        self._paused_until = max(self._paused_until, float(t))

    def note_pause(self, start: float, end: float, cause: str) -> None:
        """Tag a pause interval for latency attribution.

        Callers that pause the instance (migration executor, fault
        injector) also record *why*, so served tuples can attribute the
        overlapping part of their wait to ``migration_pause`` or
        ``recovery_pause``.  Intervals are kept sorted, non-overlapping
        (a new interval is clipped to start after the previous one ends —
        overlapping causes never double-count) and merged when contiguous
        with the same cause.  The log is pruned against the queue's
        earliest visible-time: a dropped interval can no longer overlap
        any future service window, except for tuples migrated in later
        with rewound times — those conservatively fall back to queue
        wait, which never breaks the accounting identity (queue wait is
        the residual by construction).
        """
        log = self._pause_log
        start = float(start)
        end = float(end)
        if log and start < log[-1][1]:
            start = log[-1][1]
        if end <= start:
            return
        if log and log[-1][2] == cause and log[-1][1] == start:
            log[-1] = (log[-1][0], end, cause)
        else:
            log.append((start, end, cause))
        if len(log) > 8:
            floor = self.queue.earliest_time()
            if floor is None:
                floor = start
            self._pause_log = [iv for iv in log if iv[1] > floor]

    def _pause_overlaps(
        self, taken_times: np.ndarray, scratch: np.ndarray | None = None
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Per-tuple overlap of [arrival, service] with tagged pauses.

        Every logged interval ends no later than the current tick start
        (the instance only serves once ``_paused_until`` expired), so a
        tuple taken at time ``a`` overlaps interval ``(s, e)`` for exactly
        ``max(e - max(a, s), 0)`` seconds — no completion times needed.

        The component vectors ride in the (reused) ServiceReport, so they
        live in ``scratch`` (three vectors' worth of arena memory; ``step``
        passes the tail of its per-tick float block, grown during warm-up)
        — fresh allocations here would survive the tick in the recycled
        report and break the steady-state allocation budget.
        """
        n = taken_times.shape[0]
        if scratch is None:
            scratch = self._arena.array("pause", 3 * n, np.float64)
        mig_buf = scratch[:n]
        rec_buf = scratch[n : 2 * n]
        ov_buf = scratch[2 * n : 3 * n]
        mig: np.ndarray | None = None
        rec: np.ndarray | None = None
        for start, end, cause in self._pause_log:
            if cause == "migration":
                dst, fresh = mig, mig is None
                if fresh:
                    dst = mig = mig_buf
            else:
                dst, fresh = rec, rec is None
                if fresh:
                    dst = rec = rec_buf
            if fresh:
                np.maximum(taken_times, start, out=dst)
                np.subtract(end, dst, out=dst)
                np.maximum(dst, 0.0, out=dst)
            else:
                ov = ov_buf
                np.maximum(taken_times, start, out=ov)
                np.subtract(end, ov, out=ov)
                np.maximum(ov, 0.0, out=ov)
                dst += ov
        return mig, rec

    def step(self, now: float, dt: float) -> ServiceReport:
        """Serve the queue for one tick ending at ``now + dt``."""
        queue = self.queue
        if self._tau > 0:
            alpha = min(dt / self._tau, 1.0)
            self._backlog_ewma += alpha * (queue.probe_backlog - self._backlog_ewma)
        else:
            self._backlog_ewma = float(queue.probe_backlog)
        # A crashed instance serves nothing; its (durable) queue keeps
        # absorbing dispatched tuples until the injector recovers it.
        if (self._ft is not None and self._ft.crashed) or now < self._paused_until:
            return _IDLE_REPORT
        self._paused_until = 0.0

        # Budget for this tick plus any overdraft (negative credit) from a
        # tuple that straddled the previous tick boundary.  Idle capacity is
        # never banked: credit is clamped to <= 0 whenever the queue drains.
        credit = self._work_credit + self.capacity * dt
        if len(queue) == 0 or credit <= 0:
            self._work_credit = min(credit, 0.0)
            return _IDLE_REPORT

        # Bound the peek by what this tick's credit could possibly afford:
        # every operation costs at least min(store, probe_base) work units,
        # so peeking deeper than credit/floor_cost wastes copying on
        # backlogged queues.
        affordable = int(credit / self._floor_cost) + 1
        batch = queue.peek_visible(now + dt, limit=min(self._max_chunk, affordable))
        n = len(batch)
        if n == 0:
            self._work_credit = min(credit, 0.0)
            return _IDLE_REPORT

        # One arena block per dtype (layout in repro.join.service): a
        # steady-state tick allocates nothing (DESIGN §9), and the report's
        # arrays alias the blocks until the next step.
        arena = self._arena
        fblk = arena.array("step_f", 6 * n, np.float64)
        iblk = arena.array("step_i", 3 * n, np.int64)
        bblk = arena.array("step_b", 2 * n, np.bool_)
        store_mask = bblk[:n]
        np.equal(batch.ops, OP_STORE, out=store_mask)
        n_stores = int(_count_nonzero(store_mask))
        # Push-time key bounds: one conservative range check replaces the
        # store's per-call min/max reductions (see TupleQueue.key_bounds).
        key_bounds = (queue._key_lo, queue._key_hi)
        # Stored count per position at chunk start: a dense-table gather on
        # the raw keys.  A pure-store chunk never consults the store.
        match_counts = None if n_stores == n else self._match_counts(
            batch.keys, out=iblk[:n], bounds=key_bounds
        )
        n_take, n_stored, n_results, spent = self._service(
            self, batch, n_stores, match_counts, key_bounds, credit, now,
            fblk, iblk, bblk,
        )

        leftover = credit - spent
        if n_take == n:
            # Drained everything visible: idle remainder is not banked.
            leftover = min(leftover, 0.0)
        self._work_credit = leftover
        taken_keys = batch.keys[:n_take]
        taken_times = batch.times[:n_take]
        # Pause overlaps (DESIGN §5): intervals are sorted, so when the taken
        # times are nondecreasing (flag read before consume() resets it) and
        # the last interval ends before the first arrival, all are 0: None.
        comp_migration = comp_recovery = None
        log = self._pause_log
        if log and not (queue._monotonic and log[-1][1] <= taken_times[0]):
            comp_migration, comp_recovery = self._pause_overlaps(
                taken_times, fblk[3 * n :]
            )
        n_probed = n_take - n_stored
        queue.consume(n_take, n_probes=n_probed)
        if n_stored:
            taken_mask = store_mask[:n_take]
            if self._ft is not None:
                # WAL append: crash recovery replays these keys on top of
                # the last checkpoint.  The WAL retains the array, so the
                # mask-indexed copy is the copy-out point, never scratch.
                stored_keys = taken_keys[taken_mask]
                self.store.add_batch(stored_keys)
                self._ft.record_stores(stored_keys)
            else:
                # No WAL: scatter the 0/1 store mask over the whole chunk
                # instead of materialising keys[mask] (bit-identical —
                # probes add zero).
                weights = iblk[2 * n : 2 * n + n_take]
                np.copyto(weights, taken_mask, casting="unsafe")
                self.store.add_weighted(
                    taken_keys, weights, n_stored, bounds=key_bounds
                )

        self.total_stored += n_stored
        self.total_probed += n_probed
        self.total_results += n_results
        report = self._report
        report.n_processed = n_take
        report.n_stored = n_stored
        report.n_probed = n_probed
        report.n_results = n_results
        report.latencies = fblk[n : n + n_take]
        report.work_units = spent
        report.comp_service = fblk[:n_take]
        report.comp_migration = comp_migration
        report.comp_recovery = comp_recovery
        if self.obs is not None:
            self.obs.on_instance_step(self, report)
        return report

    # ------------------------------------------------------------------ #
    # monitoring & migration hooks
    # ------------------------------------------------------------------ #

    def load_backlog(self) -> float:
        """The backlog scalar the monitor samples: the EWMA-smoothed probe
        queue length, or the instantaneous one when smoothing is off."""
        if self._tau > 0:
            return self._backlog_ewma
        return self.queue.probe_backlog

    def snapshot(self) -> InstanceLoad:
        """The two counters reported to the monitor (section III-A).

        The backlog is the EWMA-smoothed probe queue length (see
        ``backlog_smoothing_tau``); selection problems use the exact
        instantaneous per-key composition instead, because the tuples to be
        migrated are the ones actually queued.
        """
        return InstanceLoad(
            instance=self.instance_id,
            stored=self.store.total,
            backlog=self.load_backlog(),
        )

    def enable_result_tracking(self) -> None:
        """Start per-key join-result accounting (validation layer only).

        The differential harness compares the per-key result multiset
        against the exact oracle's ``|R(k)| x |S(k)|`` cross product; the
        datapath never needs it, so it is opt-in.
        """
        if self._result_counts is None:
            self._result_counts = defaultdict(float)
            self._service = track_results(self._service, self._result_counts)

    @property
    def result_tracking(self) -> bool:
        return self._result_counts is not None

    def result_counts_snapshot(self) -> dict[int, float]:
        """Per-key join results emitted by this instance's probes so far.

        Raises :class:`ConfigError` when tracking was never enabled, so a
        silent empty dict can't masquerade as "zero results".
        """
        if self._result_counts is None:
            raise ConfigError(
                "result tracking is disabled; call enable_result_tracking() "
                "before the run"
            )
        return dict(self._result_counts)

    def check_consistency(self) -> None:
        """Deep self-check of redundant counters (validation layer).

        Verifies that the store's cached total matches the per-key counts
        and that the queue's incremental probe counter matches a recount of
        the live region.  O(state) — called by invariant guards, never by
        the datapath.
        """
        counts = self.store.nonzero_counts()[1]
        if int(counts.sum()) != self.store.total:
            raise StorageError(
                f"instance {self.instance_id}/{self.side}: store total "
                f"{self.store.total} != sum of per-key counts "
                f"{int(counts.sum())}"
            )
        if (counts < 0).any():
            raise StorageError(
                f"instance {self.instance_id}/{self.side}: negative stored "
                "count"
            )
        recount = int(self.queue.probe_counts()[1].sum())
        if recount != self.queue.probe_backlog:
            raise StorageError(
                f"instance {self.instance_id}/{self.side}: probe backlog "
                f"counter {self.queue.probe_backlog} != recount {recount}"
            )

    def selection_problem(self, target: "JoinInstance") -> SelectionProblem:
        """Build the GreedyFit input for migrating from self to ``target``.

        Keys are the union of stored keys and queued-probe keys, so a key
        with a huge backlog but few stored tuples is still a candidate (its
        migration key factor is large — Definition 2).
        """
        stored_keys, stored_counts = self.store.nonzero_counts()
        probe_keys, probe_counts = self.queue.probe_counts()
        keys, at_stored, at_probe = sorted_union(stored_keys, probe_keys)
        key_stored = np.zeros(keys.shape[0], dtype=np.int64)
        key_stored[at_stored] = stored_counts
        key_backlog = np.zeros(keys.shape[0], dtype=np.int64)
        key_backlog[at_probe] = probe_counts
        return SelectionProblem(
            stored_i=self.store.total,
            backlog_i=self.queue.probe_backlog,
            stored_j=target.store.total,
            backlog_j=target.queue.probe_backlog,
            keys=keys,
            key_stored=key_stored,
            key_backlog=key_backlog,
        )

    def extract_for_migration(self, keys: set[int]) -> tuple[dict[int, int], Batch]:
        """Remove stored counts and queued tuples for the selected keys.

        Returns ``(stored_counts, queued_batch)`` — Algorithm 2 lines 3-8
        plus the in-flight buffer of section III-D.
        """
        removed = self.store.remove_keys(keys)
        queued = self.queue.extract_keys(keys)
        return removed, queued

    def accept_migration(self, stored_counts: dict[int, int], queued: Batch) -> None:
        """Target side of Algorithm 2: absorb tuples and forwarded queue."""
        self.store.merge_counts(stored_counts)
        self.queue.push(queued)

    # ------------------------------------------------------------------ #
    # fault-tolerance hooks (repro.faults)
    # ------------------------------------------------------------------ #

    @property
    def checkpointer(self):
        """The fault-tolerance state, or None when faults are disabled."""
        return self._ft

    @property
    def crashed(self) -> bool:
        return self._ft is not None and self._ft.crashed

    def attach_checkpointer(self, ckptr) -> None:
        """Opt in to crash fault tolerance (repro.faults.injector).

        ``ckptr`` is an :class:`repro.faults.checkpoint.InstanceCheckpointer`
        (duck-typed here to keep the join layer free of a dependency on
        the faults layer).
        """
        self._ft = ckptr

    def sync_checkpoint(self, now: float) -> None:
        """Force a checkpoint after an out-of-band store mutation.

        Migrations (and failover hand-offs) change the store outside the
        consume/WAL path; re-checkpointing both parties at commit keeps
        ``live store == checkpoint + WAL`` a standing invariant — which
        is exactly what crash recovery replays.  No-op when fault
        tolerance is disabled.
        """
        if self._ft is not None:
            self._ft.checkpoint(now)

    def rotate_window(self) -> int:
        """Expire the oldest sub-window (window-based join, section III-E)."""
        if not isinstance(self.store, WindowedStore):
            raise ConfigError("rotate_window requires a windowed instance")
        return self.store.rotate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JoinInstance(id={self.instance_id}, side={self.side}, "
            f"|R|={self.store.total}, backlog={len(self.queue)})"
        )

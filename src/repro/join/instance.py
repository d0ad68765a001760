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
from ..engine.columns import (
    F_CAPACITY,
    F_CREDIT,
    F_EMIT_COST,
    F_EWMA,
    F_FLOOR,
    F_LAT_OFFSET,
    F_PAUSE_END,
    F_PAUSED,
    F_PROBE_BASE,
    F_QUEUE,
    F_RESULTS,
    F_SCAN_COEFF,
    F_STORE_COST,
    F_TAU,
    HOOK_FT,
    HOOK_OBS,
    HOOK_TRACK,
    I_COST_CUT,
    I_HOOKS,
    I_MAX_CHUNK,
    I_MODEL,
    I_P_PAUSE,
    I_PAUSE_LEN,
    I_PROBED,
    I_QUEUE,
    I_STORE,
    I_STORED,
    N_FLOAT,
    N_INT,
    PAUSE_MIGRATION,
    PAUSE_RECOVERY,
    Q_NFLOAT,
    Q_NINT,
    S_NINT,
    column_field,
)
from ..engine.cost import CostModel, IndexedCost, ScanCost
from ..engine.queues import TupleQueue
from ..engine.tuples import Batch
from ..errors import ConfigError, StorageError
from .service import ServiceTable, model_code, select_kernel
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
    the report block of the instance's service table.  They are valid
    until that table's *next* pass; the metrics collector consumes them
    within the same tick (summing / copying into its reservoir), and any
    consumer that retains them longer must copy.  A non-idle pass reuses one report object per
    instance on the same validity schedule — hold the fields you need,
    not the report.
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
        self.cost_model = cost_model if cost_model is not None else ScanCost()
        self.cost_model.validate()
        self.store: KeyedStore | WindowedStore
        if window_subwindows is None:
            self.store = KeyedStore()
        else:
            self.store = WindowedStore(window_subwindows)
        # The keyed store holding |R_i| (the window's inner store).  The
        # probe lookup is bound to it directly: the windowed store's
        # match_counts is a pure delegation, and one call frame per chunk
        # is measurable at tick rate.
        self._keyed = (
            self.store._store if isinstance(self.store, WindowedStore)
            else self.store
        )
        self._match_counts = self._keyed.match_counts
        # Reused per-instance report (DESIGN §9): its arrays alias the
        # service table's report block and are valid until the next pass,
        # so the carrier object can be recycled on the same schedule.
        self._report = ServiceReport()
        # Grow-only scratch buffers (DESIGN §9).  The instance owns the
        # arena and shares it with its queue.
        self._arena = Arena()
        self.queue = TupleQueue(arena=self._arena)
        # The per-tick scalars live in one column of a service table
        # (repro.engine.columns); until a runtime adopts the instance, it
        # is the only column of its own table.
        self._i = memoryview(np.zeros(N_INT, dtype=np.int64))
        self._f = memoryview(np.zeros(N_FLOAT, dtype=np.float64))
        self._f[F_CAPACITY] = float(capacity)
        self._i[I_MAX_CHUNK] = int(max_service_chunk)
        # Every operation costs at least this much; the peek bound derives
        # from it.  The cost model is immutable, so resolve it once.
        self._f[F_FLOOR] = max(
            min(
                self.cost_model.store_cost,
                getattr(self.cost_model, "probe_base", 1.0),
            ),
            1e-9,
        )
        cm = self.cost_model
        self._i[I_MODEL] = model_code(cm)
        self._f[F_STORE_COST] = float(cm.store_cost)
        self._f[F_PROBE_BASE] = float(getattr(cm, "probe_base", 0.0))
        self._f[F_SCAN_COEFF] = float(getattr(cm, "scan_coeff", 0.0))
        self._f[F_EMIT_COST] = float(getattr(cm, "emit_cost", 0.0))
        # The C plan stages each chunk only up to where a lower bound of its
        # price reaches the credit (repro.engine.ckernels), unless no probe's
        # price depends on its chunk: an index with no per-match cost.
        self._i[I_COST_CUT] = not (
            isinstance(cm, IndexedCost) and cm.emit_cost == 0
        )
        # The kernel this instance can be served by (repro.join.service):
        # C when the kernel is built and the cost model is exactly one of
        # the two shipped types, numpy otherwise.
        self.service_kernel = select_kernel(self.cost_model)
        # Exponential moving average of the probe backlog, with time
        # constant tau.  The monitor reads this smoothed value: an
        # instantaneous queue length sampled once a second is a noisy load
        # signal (a healthy instance's queue oscillates through zero every
        # tick), and Eq. 2's max/min ratio amplifies that noise into
        # spurious migrations.  tau <= 0 disables smoothing.
        self._f[F_TAU] = float(backlog_smoothing_tau)
        # Added to every reported latency: the dispatch/network delay a
        # tuple paid before becoming visible in this queue.  Makes reported
        # latency end-to-end (emission -> join completion), which is what
        # surfaces the paper's Fig. 6 effect — latency growing with the
        # instance count through dispatch/gather communication overhead.
        self._f[F_LAT_OFFSET] = float(latency_offset)
        # Opt-in per-key join-result accounting for the differential
        # validation layer (repro.validate).
        self._result_counts: dict[int, float] | None = None
        # Optional observability bundle (repro.obs): the service pass only
        # calls it for instances that carry one.
        self._obs = None
        # Tagged pause intervals (start, end, cause) with cause in
        # {"migration", "recovery"}: sorted, non-overlapping, merged when
        # contiguous.  Served tuples attribute the part of their wait that
        # overlaps these intervals to the corresponding component.
        self._pause_log = []
        # Optional fault-tolerance state (repro.faults): checkpoint + WAL +
        # crash flag.  None by default.
        self._ft = None
        ServiceTable([self])

    def _bind(self, table: ServiceTable, slot: int) -> None:
        """Read and write this instance's scalars (and its queue's and
        store's) in column ``slot`` of ``table`` from now on."""
        self._table = table
        self._slot = slot
        self._i = memoryview(table.ints[:, slot])
        self._f = memoryview(table.floats[:, slot])
        self.queue.bind_columns(
            table.ints[I_QUEUE : I_QUEUE + Q_NINT, slot],
            table.floats[F_QUEUE : F_QUEUE + Q_NFLOAT, slot],
        )
        self._keyed.bind_columns(table.ints[I_STORE : I_STORE + S_NINT, slot])

    def _set_hook(self, hook: int, on: bool) -> None:
        if on:
            self._i[I_HOOKS] |= hook
        else:
            self._i[I_HOOKS] &= ~hook
        self._table.refresh_hooks()

    capacity = column_field("_f", F_CAPACITY, "work units per second")
    latency_offset = column_field(
        "_f", F_LAT_OFFSET, "dispatch delay added to every latency"
    )
    total_stored = column_field("_i", I_STORED, "lifetime stores served")
    total_probed = column_field("_i", I_PROBED, "lifetime probes served")
    total_results = column_field("_f", F_RESULTS, "lifetime join results")
    _work_credit = column_field("_f", F_CREDIT, "credit carried across ticks")
    _paused_until = column_field("_f", F_PAUSED, "paused until (0: not)")
    _backlog_ewma = column_field("_f", F_EWMA, "smoothed probe backlog")
    _tau = column_field("_f", F_TAU, "backlog smoothing time constant")

    @property
    def obs(self):
        return self._obs

    @obs.setter
    def obs(self, obs) -> None:
        self._obs = obs
        self._set_hook(HOOK_OBS, obs is not None)

    @property
    def _pause_log(self) -> list[tuple[float, float, str]]:
        return self._log

    @_pause_log.setter
    def _pause_log(self, log: list[tuple[float, float, str]]) -> None:
        self._log = log
        # The service kernel reads the log as (start, end, cause) rows.
        self._log_rows = np.array(
            [(start, end, PAUSE_MIGRATION if cause == "migration"
              else PAUSE_RECOVERY) for start, end, cause in log],
            dtype=np.float64,
        ).reshape(-1, 3)
        self._i[I_P_PAUSE] = self._log_rows.ctypes.data
        self._i[I_PAUSE_LEN] = len(log)
        self._f[F_PAUSE_END] = log[-1][1] if log else -np.inf

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
        log = self._log
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
            log = [iv for iv in log if iv[1] > floor]
        self._pause_log = log

    def _pause_overlaps(
        self, taken_times: np.ndarray, scratch: np.ndarray | None = None
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Per-tuple overlap of [arrival, service] with tagged pauses: the
        numpy reference of the service kernel's pause overlaps.

        Every logged interval ends no later than the current tick start
        (the instance only serves once ``_paused_until`` expired), so a
        tuple taken at time ``a`` overlaps interval ``(s, e)`` for exactly
        ``max(e - max(a, s), 0)`` seconds — no completion times needed.
        Returns ``(migration, recovery)``, each None when the log holds no
        interval of that cause.

        The vectors live in ``scratch`` (three vectors' worth; by default
        the arena's ``pause`` block, grown during warm-up), so a steady
        tick allocates nothing; the pass copies them into its report
        block.
        """
        n = taken_times.shape[0]
        if scratch is None:
            scratch = self._arena.array("pause", 3 * n, np.float64)
        mig_buf = scratch[:n]
        rec_buf = scratch[n : 2 * n]
        ov_buf = scratch[2 * n : 3 * n]
        mig: np.ndarray | None = None
        rec: np.ndarray | None = None
        for start, end, cause in self._log:
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
        """Serve the queue for one tick ending at ``now + dt``: the service
        pass of this instance's table over this instance's column alone."""
        slot = self._slot
        if not self._table.run(now, dt, slot, slot + 1):
            return _IDLE_REPORT
        return self._table.report(slot)

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
            self._set_hook(HOOK_TRACK, True)

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
        self._set_hook(HOOK_FT, True)

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

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
from ..engine import ckernels as _ck
from ..engine.arena import Arena
from ..engine.cost import CostModel, IndexedCost, ScanCost
from ..engine.queues import TupleQueue
from ..engine.tuples import OP_PROBE, OP_STORE, Batch
from ..errors import ConfigError, StorageError
from .storage import KeyedStore, sorted_union
from .window import WindowedStore

__all__ = ["JoinInstance", "ServiceReport"]


def _prior_same_key_stores(
    keys: np.ndarray, store_mask: np.ndarray
) -> np.ndarray:
    """For each position, how many *store* ops with the same key precede it
    within the chunk (exclusive).  Makes intra-tick join results exact: a
    probe sees every store that was served before it, even in the same
    service chunk.  One stable argsort groups equal keys while preserving
    position order within each group; no key-compaction pass is needed.
    """
    n = keys.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(keys, kind="stable")  # groups keys, preserves position order
    keys_sorted = keys[order]
    flags_sorted = store_mask[order]
    excl = flags_sorted.cumsum()
    excl -= flags_sorted  # exclusive global prefix of store flags
    start = np.empty(n, dtype=bool)
    start[0] = True
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=start[1:])
    # exclusive within-group prefix: global exclusive prefix minus the
    # prefix at each group's start.  ``excl`` is non-decreasing, so a
    # running maximum over the group-start values broadcasts each group's
    # base without materialising segment lengths.
    base = np.maximum.accumulate(np.where(start, excl, 0))
    out = np.empty(n, dtype=np.int64)
    out[order] = excl - base
    return out


try:  # pragma: no cover - plain count_nonzero on other numpy layouts
    # The C kernel directly: the np.count_nonzero wrapper's axis handling
    # costs as much as counting a chunk-sized mask.
    _count_nonzero = np._core.multiarray.count_nonzero
except AttributeError:  # pragma: no cover
    _count_nonzero = np.count_nonzero

#: Dense same-key counter cap for the fused C correction: bounds above
#: this would ask for a >16 MB counter table, so such chunks (no shipped
#: workload comes close) stay on the numpy paths.
_PSK_C_CAP = 1 << 21


#: Below this chunk length the dict-based scalar loop beats the vector
#: pipeline: ~10 numpy calls plus a sort cost more than n dict operations
#: until n is well past a hundred (measured crossover ~140 on the bench
#: cells), and the scalar path needs no key-range guard because Python
#: ints never overflow the composite.
_PSK_SMALL_N = 128


def _accumulate_prior_same_key_stores(
    keys: np.ndarray,
    store_mask: np.ndarray,
    match_counts: np.ndarray,
    arena: Arena,
    bounds: tuple[int, int] | None = None,
) -> None:
    """Add each position's prior-same-key-store count into ``match_counts``.

    Allocation-free equivalent of ``match_counts += _prior_same_key_stores``
    for the hot path.  Small chunks (the typical case: service chunks run a
    few dozen tuples) take a scalar dict loop — integer adds, bit-identical
    by construction.  Larger chunks replace the stable argsort over keys
    with an *in-place* sort of the composite ``key << 32 | position`` into
    arena scratch (unique composites make the sorted order identical to the
    stable grouped-by-key order — the same trick the dispatcher's counting
    scatter uses), and every intermediate lives in the arena.  The final
    scatter-add ``np.add.at(match_counts, positions, within_group_prefix)``
    is the permutation-inverse of the reference implementation's fancy
    assignment, so the accumulated values are bit-identical.

    Keys outside ``[0, 2**31)`` cannot ride the composite; such chunks
    (never produced by the shipped workloads) fall back to the reference
    implementation.  ``bounds`` is the caller's conservative key range
    (the queue's push-time bounds); when given it replaces the per-call
    min/max guard reductions.
    """
    n = keys.shape[0]
    if n == 0:
        return
    if _ck.lib is not None and bounds is not None:
        lo, hi = bounds
        if 0 <= lo and hi < _PSK_C_CAP:
            # Fused C pass: one O(n) scalar loop over dense per-key running
            # counters replaces the whole pipeline below.  Integer adds in
            # the same per-position order as the reference — bit-identical
            # by construction.  The counter buffer is all-zero between
            # calls (the kernel un-writes the slots it touched), so
            # ``Arena.zeros`` never has to clear it on the steady path.
            cnt = arena.zeros("psk_cnt", hi + 1, np.int64)
            f = _ck.ffi
            _ck.lib.psk_correct(
                f.from_buffer("int64_t[]", keys),
                f.from_buffer("unsigned char[]", store_mask),
                f.from_buffer("int64_t[]", match_counts),
                n,
                f.from_buffer("int64_t[]", cnt),
            )
            return
    if n <= _PSK_SMALL_N:
        counts: dict[int, int] = {}
        counts_get = counts.get
        for i, (k, is_store) in enumerate(
            zip(keys.tolist(), store_mask.tolist())
        ):
            c = counts_get(k)
            if c:
                match_counts[i] += c
            if is_store:
                counts[k] = (c + 1) if c else 1
        return
    if bounds is not None:
        lo, hi = bounds
    else:
        lo = int(keys.min())
        hi = int(keys.max())
    if lo < 0 or hi >= (1 << 31):
        match_counts += _prior_same_key_stores(keys, store_mask)
        return
    # One int64 block and one bool block instead of six tagged lookups:
    # arena.array is on the per-step path often enough that the dict
    # round-trips are measurable.
    iblk = arena.array("psk_i", 3 * n, np.int64)
    bblk = arena.array("psk_b", 2 * n, np.bool_)
    packed = iblk[:n]
    np.multiply(keys, 1 << 32, out=packed)
    np.add(packed, arena.iota(n), out=packed)
    packed.sort()
    idx = iblk[n : 2 * n]
    np.bitwise_and(packed, 0xFFFFFFFF, out=idx)
    np.right_shift(packed, 32, out=packed)  # now the grouped (sorted) keys
    flags = bblk[:n]
    store_mask.take(idx, out=flags, mode="clip")
    excl = iblk[2 * n : 3 * n]
    np.copyto(excl, flags, casting="unsafe")
    excl.cumsum(out=excl)
    np.subtract(excl, flags, out=excl)  # exclusive global store prefix
    start = bblk[n : 2 * n]
    start[0] = True
    np.not_equal(packed[1:], packed[:-1], out=start[1:])
    base = packed  # the grouped keys are dead once ``start`` is taken
    np.multiply(excl, start, out=base)  # == where(start, excl, 0): ints
    np.maximum.accumulate(base, out=base)
    np.subtract(excl, base, out=excl)  # exclusive within-group prefix
    # ``idx`` is a permutation (each position appears exactly once), so the
    # scatter-add degenerates to gather + integer add + fancy assignment —
    # identical values without ufunc.at's slow buffered path.
    gathered = base  # and the group bases are dead once ``excl`` is final
    match_counts.take(idx, out=gathered)
    np.add(gathered, excl, out=gathered)
    match_counts[idx] = gathered


@dataclass
class ServiceReport:
    """What one instance accomplished during one tick.

    The three ``comp_*`` arrays are the measured pieces of the latency
    attribution identity (DESIGN §5): per-tuple service time and per-tuple
    overlap with migration/recovery pauses, aligned with ``latencies``.
    ``comp_migration``/``comp_recovery`` stay None when no pause interval
    overlapped the chunk (the common case); all three are None when the
    instance's attribution accounting is switched off.  Queue wait is not
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
        self._cost_uses_sizes = getattr(self.cost_model, "uses_store_sizes", True)
        # Fused C service kernel (ckernels.step_service): only the two
        # shipped cost models have their exact float-op order baked into
        # the kernel, so an exact type check gates it — subclasses with an
        # overridden probe_costs take the numpy path.  -1 = unavailable.
        if _ck.lib is not None and type(self.cost_model) is ScanCost:
            self._c_model = 0
        elif _ck.lib is not None and type(self.cost_model) is IndexedCost:
            self._c_model = 1
        else:
            self._c_model = -1
        self._c_probe_base = float(getattr(self.cost_model, "probe_base", 0.0))
        self._c_scan_coeff = float(getattr(self.cost_model, "scan_coeff", 0.0))
        self._c_emit_cost = float(getattr(self.cost_model, "emit_cost", 0.0))
        self._c_out_i = np.empty(3, dtype=np.int64)
        self._c_out_d = np.empty(1, dtype=np.float64)
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
        # validation layer (repro.validate).  Off by default: the datapath
        # pays only one ``is None`` test per tick when disabled.
        self._result_counts: dict[int, float] | None = None
        # Optional observability bundle (repro.obs); same one-test contract.
        self.obs = None
        # Latency attribution (DESIGN §5): per-tuple service/pause
        # components reported alongside latencies.  On by default — the
        # accounting is two in-place vector ops on buffers the tick already
        # produced — but switchable for overhead measurement.
        self.attribution = True
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
        self,
        taken_times: np.ndarray,
        bufs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Per-tuple overlap of [arrival, service] with tagged pauses.

        Every logged interval ends no later than the current tick start
        (the instance only serves once ``_paused_until`` expired), so a
        tuple taken at time ``a`` overlaps interval ``(s, e)`` for exactly
        ``max(e - max(a, s), 0)`` seconds — no completion times needed.
        """
        mig: np.ndarray | None = None
        rec: np.ndarray | None = None
        # The component vectors ride in the (reused) ServiceReport, so they
        # must live in scratch the arena already grew — fresh allocations
        # here would survive the tick in the recycled report and break the
        # steady-state allocation budget.  ``step()`` passes slices of its
        # per-tick float block (sized during warm-up); direct callers fall
        # back to dedicated arena tags.
        if bufs is not None:
            mig_buf, rec_buf, ov_buf = bufs
        else:
            arena = self._arena
            n = taken_times.shape[0]
            mig_buf = arena.array("pause_mig", n, np.float64)
            rec_buf = arena.array("pause_rec", n, np.float64)
            ov_buf = arena.array("pause_ov", n, np.float64)
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
        if self._ft is not None and self._ft.crashed:
            return _IDLE_REPORT
        if now < self._paused_until:
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
        n_visible = len(batch)
        if n_visible == 0:
            self._work_credit = min(credit, 0.0)
            return _IDLE_REPORT

        # The chunk's store/probe composition picks one of three paths:
        # all-store chunks never consult the keyed store, all-probe chunks
        # (the common case under broadcast probes) skip the store-prefix
        # cumsum and the boolean-mask copies, and only mixed chunks pay for
        # the intra-chunk same-key correction.  Every vector below lives in
        # the instance's arena, so a steady-state tick allocates nothing
        # (DESIGN §9); ``costs``/``cum`` escape into the ServiceReport and
        # stay valid until the next step.
        arena = self._arena
        # Push-time key bounds: one conservative range check replaces the
        # store's per-call min/max reductions (see TupleQueue.key_bounds).
        key_bounds = (queue._key_lo, queue._key_hi)
        # Scratch is fetched as one block per dtype and sliced here: the
        # per-tag arena lookups are cheap but frequent enough on this path
        # that three fetches beat eight.
        # Six float slots: costs, cum, probe scratch, and three for the
        # pause-attribution vectors — carving the latter out of the same
        # per-tick block means their backing memory is grown during
        # warm-up, not on the first post-pause steady tick.
        fblk = arena.array("step_f", 6 * n_visible, np.float64)
        iblk = arena.array("step_i", 3 * n_visible, np.int64)
        bblk = arena.array("step_b", 2 * n_visible, np.bool_)
        store_mask = bblk[:n_visible]
        np.equal(batch.ops, OP_STORE, out=store_mask)
        n_stores_visible = int(_count_nonzero(store_mask))
        any_stores = n_stores_visible > 0
        pure_store = n_stores_visible == n_visible
        store_cost = self.cost_model.store_cost
        costs = fblk[:n_visible]
        cum = fblk[n_visible : 2 * n_visible]
        if pure_store:
            # Pure store chunk: no probes, no matches, uniform cost.
            match_counts = None
        else:
            # Matches are exact even intra-chunk: stored count at chunk
            # start (a dense-table gather on the raw keys) plus same-key
            # stores served earlier in this chunk.  The intra-chunk
            # correction only exists when the chunk contains stores, so
            # probe-only chunks skip the grouping pass entirely.
            match_counts = self._match_counts(
                batch.keys,
                out=iblk[:n_visible],
                bounds=key_bounds,
            )
            if any_stores:
                # Positions before the chunk's first store need no
                # correction, so the grouping pass runs on the suffix only —
                # usually just the tail blocks of a mostly-probe chunk.
                i0 = int(store_mask.argmax())
                _accumulate_prior_same_key_stores(
                    batch.keys[i0:], store_mask[i0:], match_counts[i0:],
                    arena, bounds=key_bounds,
                )
        fused = self._c_model >= 0
        if fused:
            # Fused C service kernel (ckernels.step_service): costs,
            # cumsum, credit cutoff, taken-store count, result sum,
            # latencies and attribution in one pass over the same arena
            # buffers the numpy chain below uses — bit-identical outputs
            # (the kernel replicates each ufunc's op order exactly).
            f = _ck.ffi
            out_i = self._c_out_i
            out_d = self._c_out_d
            _ck.lib.step_service(
                f.NULL
                if match_counts is None
                else f.from_buffer("int64_t[]", match_counts),
                f.from_buffer("unsigned char[]", store_mask),
                f.from_buffer("double[]", batch.times),
                f.from_buffer("double[]", costs),
                f.from_buffer("double[]", cum),
                n_visible,
                self.store.total,
                self._c_model,
                1 if pure_store else 0,
                1 if self.attribution else 0,
                store_cost,
                self._c_probe_base,
                self._c_scan_coeff,
                self._c_emit_cost,
                credit,
                self.capacity,
                now,
                self.latency_offset,
                f.from_buffer("int64_t[]", out_i),
                f.from_buffer("double[]", out_d),
            )
            n_take = int(out_i[0])
        else:
            if pure_store:
                costs.fill(float(store_cost))
            else:
                if any_stores:
                    if self._cost_uses_sizes:
                        # |R_i| in effect at each position: start size plus
                        # stores already applied earlier in the chunk.
                        sizes_at = iblk[n_visible : 2 * n_visible]
                        np.copyto(sizes_at, store_mask, casting="unsafe")
                        sizes_at.cumsum(out=sizes_at)
                        np.subtract(sizes_at, store_mask, out=sizes_at)
                        sizes_at += self.store.total
                    else:
                        # The cost model ignores store sizes: skip the
                        # prefix pass and pass a placeholder.
                        sizes_at = match_counts
                else:
                    # No stores in the chunk: the store size is constant; a
                    # scalar broadcasts through the cost arithmetic.
                    sizes_at = np.int64(self.store.total)
                # probe_costs writes into the arena buffer; overwrite the
                # store positions in place instead of a second np.where
                # allocation.
                costs = self.cost_model.probe_costs(
                    sizes_at,
                    match_counts,
                    out=costs,
                    scratch=fblk[2 * n_visible : 3 * n_visible],
                )
                if any_stores:
                    np.copyto(costs, store_cost, where=store_mask)
            costs.cumsum(out=cum)
            # Serve tuple t while credit is still positive when t starts,
            # i.e. while its exclusive prefix cost cum[t-1] is < credit
            # (allows one overdraft tuple, modelling partial service
            # carried into the next tick).  The first inclusive prefix >=
            # credit is that boundary.  When even the full chunk fits in
            # the credit (backlog drained — a frequent steady state) the
            # scalar tail read settles it without a bisection.
            if cum[n_visible - 1] < credit:
                n_take = n_visible
            else:
                n_take = int(cum.searchsorted(credit, side="left")) + 1
                if n_take > n_visible:
                    n_take = n_visible

        taken_keys = batch.keys[:n_take]
        taken_times = batch.times[:n_take]
        # Sampled before consume() (draining flips the flag back to True):
        # were the taken times nondecreasing, so taken_times[0] is their
        # minimum?  Used by the pause-overlap short-circuit below.
        taken_monotonic = queue._monotonic
        spent = float(out_d[0]) if fused else float(cum[n_take - 1])
        leftover = credit - spent
        if n_take == n_visible:
            # Drained everything visible: idle remainder is not banked.
            leftover = min(leftover, 0.0)
        self._work_credit = leftover

        taken_mask = store_mask[:n_take]
        if fused:
            n_stored = int(out_i[1])
        elif not any_stores:
            n_stored = 0
        elif n_take == n_visible:
            n_stored = n_stores_visible
        else:
            n_stored = int(_count_nonzero(taken_mask))
        n_probed = n_take - n_stored
        queue.consume(n_take, n_probes=n_probed)
        if n_stored:
            if self._ft is not None:
                # WAL append: these keys mutate the volatile store, so
                # crash recovery must be able to replay them on top of
                # the last checkpoint.  The WAL retains the array, so it
                # must own fresh memory — the mask-indexed copy here is
                # the explicit copy-out point, never arena scratch.
                stored_keys = taken_keys[taken_mask]
                self.store.add_batch(stored_keys)
                self._ft.record_stores(stored_keys)
            else:
                # No WAL: scatter the 0/1 store mask over the whole chunk
                # instead of materialising keys[mask] (bit-identical —
                # probes add zero).
                weights = iblk[2 * n_visible : 2 * n_visible + n_take]
                np.copyto(weights, taken_mask, casting="unsafe")
                self.store.add_weighted(
                    taken_keys, weights, n_stored, bounds=key_bounds
                )
        if fused:
            # Integer sum over taken probe positions — order-invariant, so
            # the kernel's scalar accumulation is exact.
            n_results = float(out_i[2])
        elif n_probed == 0:
            n_results = 0.0
        elif n_stored == 0:
            n_results = float(np.add.reduce(match_counts[:n_take]))
        else:
            # Sum the probe positions only; a masked reduction over the
            # integer match counts equals summing the compressed array.
            nmask = bblk[n_visible : n_visible + n_take]
            np.logical_not(taken_mask, out=nmask)
            n_results = float(np.add.reduce(match_counts[:n_take], where=nmask))
        if self._result_counts is not None and n_probed:
            # Validation-only accounting: allocating the compacted views
            # here is fine, the differential harness is not the hot path.
            counts = self._result_counts
            if n_stored == 0:
                probe_keys = taken_keys
                probe_results = match_counts[:n_take]
            else:
                keep = ~taken_mask
                probe_keys = taken_keys[keep]
                probe_results = match_counts[:n_take][keep]
            for k, c in zip(probe_keys.tolist(), probe_results.tolist()):
                if c:
                    counts[k] += c

        # Per-tuple completion time within the tick: the instant the tuple's
        # cumulative work finished at this capacity.  latency = completion -
        # arrival; the overdraft tuple may nominally finish just past the
        # tick boundary, which is the intended carry-over semantics.
        # (latency = max(now + cum/capacity - arrival, 0) + offset, computed
        # in place on the one fresh division result.)
        # ``cum`` is not read again after ``spent`` was captured, so the
        # division happens in place on its buffer.
        latencies = cum[:n_take]
        if not fused:
            latencies /= self.capacity
            latencies += now
            latencies -= taken_times
            np.maximum(latencies, 0.0, out=latencies)
        # Latency attribution (DESIGN §5), taken before the offset lands so
        # components are clipped against the measured queue+service window.
        # service = min(own cost / capacity, clamped pre-offset latency):
        # equal to the tuple's full service time except for mid-tick
        # arrivals, whose latency window starts after their service began.
        # ``costs`` is dead after ``cum``/``spent`` were taken, so the
        # division reuses its buffer — the accounting costs two in-place
        # vector ops and no allocation.
        comp_service = comp_migration = comp_recovery = None
        if self.attribution:
            comp_service = costs[:n_take]
            if not fused:
                comp_service /= self.capacity
                np.minimum(comp_service, latencies, out=comp_service)
            if self._pause_log and not (
                # Short-circuit: intervals are sorted, so log[-1] ends last;
                # when even that end precedes the chunk's earliest arrival
                # every per-tuple overlap is exactly 0 and the components
                # are all-zero vectors.  Reporting them as None is
                # equivalent everywhere sums are consumed, but an attached
                # observability bundle histograms the zero vectors, so the
                # shortcut only fires on the bare datapath.
                self.obs is None
                and taken_monotonic
                and self._pause_log[-1][1] <= taken_times[0]
            ):
                comp_migration, comp_recovery = self._pause_overlaps(
                    taken_times,
                    (
                        fblk[3 * n_visible : 3 * n_visible + n_take],
                        fblk[4 * n_visible : 4 * n_visible + n_take],
                        fblk[5 * n_visible : 5 * n_visible + n_take],
                    ),
                )
        if self.latency_offset and not fused:
            latencies += self.latency_offset

        self.total_stored += n_stored
        self.total_probed += n_probed
        self.total_results += n_results
        report = self._report
        report.n_processed = n_take
        report.n_stored = n_stored
        report.n_probed = n_probed
        report.n_results = n_results
        report.latencies = latencies
        report.work_units = spent
        report.comp_service = comp_service
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

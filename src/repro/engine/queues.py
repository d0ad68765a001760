"""Input queues for join instances.

A :class:`TupleQueue` is a growable FIFO ring buffer holding pending store
and probe operations as structure-of-arrays (keys, visible-times, ops).  It
additionally answers queries about the *per-key probe composition* of its
backlog — ``phi_sik`` in the paper's notation — because GreedyFit
(Algorithm 1) needs it to score keys for migration, and the migration
protocol (Algorithm 2) needs to extract enqueued tuples of the selected
keys so the target instance can process them (completeness).

The scalar probe backlog (``phi_si``) is maintained incrementally because
the monitor reads it every period; the per-key breakdown is computed on
demand by scanning the live region, because it is only needed when a
migration is being planned (rare) and keeping it incrementally costs a
``np.unique`` + dict update on every push/consume (the datapath hot loop).

The hot-path entry points are shaped for the batched dispatcher: a
dispatch delivers a block of keys that share one visible-time and one
operation (:meth:`push_block` broadcasts the scalars instead of
materialising per-tuple arrays), and the ring buffer takes contiguous
slice fast paths whenever the live region does not wrap.

Only tuples whose visible-time is <= "now" may be consumed; this is how
dispatch/network delay is modelled without a separate in-flight structure.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from .arena import Arena
from .columns import (
    Q_CAP,
    Q_CONSUMED,
    Q_GEN,
    Q_HEAD,
    Q_KEY_HI,
    Q_KEY_LO,
    Q_MARK,
    Q_NFLOAT,
    Q_NINT,
    Q_ORDERED,
    Q_PROBES,
    Q_SIZE,
    QF_TAIL,
    column_field,
)
from .tuples import OP_PROBE, Batch

__all__ = ["TupleQueue"]

_MIN_CAPACITY = 64

#: key-bound sentinels for an empty push history: any real push tightens
#: both, and the (lo > hi) combination never satisfies a fast-path check
_KEY_BOUND_EMPTY_LO = 1 << 62
_KEY_BOUND_EMPTY_HI = -1

# The queue's scalar state ("cursors") lives in one int64 and one float64
# column rather than in attributes, so a service table can re-bind it into
# its struct of arrays and serve the queue from C (repro.join.service).
# The rows are defined in repro.engine.columns.


class TupleQueue:
    """Growable FIFO of pending operations with probe-backlog accounting."""

    def __init__(
        self,
        initial_capacity: int = _MIN_CAPACITY,
        arena: Arena | None = None,
    ) -> None:
        # Scratch space for wrapped-ring peeks; the owning instance shares
        # its arena so one warm buffer set serves queue + join step.
        self._arena = arena if arena is not None else Arena()
        cap = max(int(initial_capacity), _MIN_CAPACITY)
        self._keys = np.empty(cap, dtype=np.int64)
        self._times = np.empty(cap, dtype=np.float64)
        self._ops = np.empty(cap, dtype=np.int8)
        self._qi = memoryview(np.zeros(Q_NINT, dtype=np.int64))
        self._qf = memoryview(np.zeros(Q_NFLOAT, dtype=np.float64))
        self._qi[Q_CAP] = cap
        # Visible-times are nondecreasing in enqueue order for the normal
        # datapath (each block's scalar time is emit-tick + a fixed per-side
        # delay), which lets peek_visible find the visibility cut with one
        # bisection.  An out-of-order push (a migration hand-off, a rebuild)
        # clears the flag and records a watermark; consume() sets it again
        # once every tuple up to the watermark has been served.
        self._qi[Q_ORDERED] = 1
        self._qf[QF_TAIL] = -np.inf
        # Conservative (grow-only) bounds over every key ever pushed.  The
        # join instance forwards them to the store's dense-table fast-path
        # checks, replacing two boxed min/max reductions per service step
        # with two reductions per *push* — pushes are rare under
        # backpressure, steps are not.  Never narrowed: a stale-wide bound
        # only costs the callee its own min/max re-check.
        self._qi[Q_KEY_LO] = _KEY_BOUND_EMPTY_LO
        self._qi[Q_KEY_HI] = _KEY_BOUND_EMPTY_HI

    _head = column_field("_qi", Q_HEAD, "ring index of the oldest element")
    _size = column_field("_qi", Q_SIZE, "live elements")
    _n_probes = column_field("_qi", Q_PROBES, "live probe operations")
    # Lifetime count of tuples removed through consume() — the queue
    # watermark a fault-tolerance checkpoint records (repro.faults).
    # Service consumption only: migration extraction and clear() are not
    # service, so they leave it untouched.
    _consumed = column_field("_qi", Q_CONSUMED, "lifetime consumed tuples")
    _monotonic = column_field("_qi", Q_ORDERED, "live visible-times nondecreasing")
    _key_lo = column_field("_qi", Q_KEY_LO, "push-time lower key bound")
    _key_hi = column_field("_qi", Q_KEY_HI, "push-time upper key bound")
    _tail_time = column_field("_qf", QF_TAIL, "time of the last in-order push")

    def bind_columns(self, qi: np.ndarray, qf: np.ndarray) -> None:
        """Move the cursors into caller-owned int64/float64 columns.

        ``qi``/``qf`` are views of ``Q_NINT``/``Q_NFLOAT`` elements (rows of
        a service table's struct of arrays); the current values are copied
        in and the queue reads and writes them from then on.
        """
        qi[:] = self._qi
        qf[:] = self._qf
        self._qi = memoryview(qi)
        self._qf = memoryview(qf)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._qi[Q_SIZE]

    @property
    def probe_backlog(self) -> int:
        """Total queued probe tuples — ``phi_si`` in the paper (Eq. 4)."""
        return self._qi[Q_PROBES]

    @property
    def consumed_total(self) -> int:
        """Lifetime tuples served through :meth:`consume` (the checkpoint
        watermark: WAL entries after it are replayed on recovery)."""
        return self._qi[Q_CONSUMED]

    @property
    def key_bounds(self) -> tuple[int, int]:
        """Conservative ``(lo, hi)`` over every key ever pushed.

        Grow-only, so the bounds cover any batch peeked from this queue;
        an empty push history reports ``lo > hi``.
        """
        qi = self._qi
        return qi[Q_KEY_LO], qi[Q_KEY_HI]

    def _live(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views/copies of the live region in FIFO order."""
        idx = self._live_indices(self._size)
        return self._keys[idx], self._times[idx], self._ops[idx]

    def probe_count(self, key: int) -> int:
        """Queued probe tuples for one key — ``phi_sik``."""
        if self._size == 0:
            return 0
        keys, _, ops = self._live()
        return int(np.count_nonzero((keys == int(key)) & (ops == OP_PROBE)))

    def probe_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-key probe backlog as sorted ``(keys, counts)`` int64 arrays
        (keys with zero count omitted).

        Computed by scanning the live region — called when the monitor
        plans a migration, not on the datapath.
        """
        if self._size == 0 or self._n_probes == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        keys, _, ops = self._live()
        uniq, counts = np.unique(keys[ops == OP_PROBE], return_counts=True)
        return uniq, counts.astype(np.int64, copy=False)

    def probe_counts_snapshot(self) -> dict[int, int]:
        """:meth:`probe_counts` as a dict (validation and tests only)."""
        keys, counts = self.probe_counts()
        return dict(zip(keys.tolist(), counts.tolist()))

    def earliest_time(self) -> float | None:
        """Smallest visible-time among queued tuples (None when empty).

        Latency attribution uses this as a pruning floor: a pause interval
        that ended at or before every queued tuple's visible-time can never
        overlap a future service window, so the instance drops it from its
        pause log.  O(1) for the ordered datapath (head element), one
        vectorised min otherwise.
        """
        size = self._size
        if size == 0:
            return None
        head = self._head
        if self._monotonic:
            return float(self._times[head])
        if head + size <= self.capacity:
            return float(self._times[head : head + size].min())
        return float(self._times[self._live_indices(size)].min())

    @property
    def capacity(self) -> int:
        return self._keys.shape[0]

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def _grow(self, needed: int) -> None:
        new_cap = max(self.capacity * 2, self._size + needed, _MIN_CAPACITY)
        self._relocate(new_cap)

    def _relocate(self, new_cap: int) -> None:
        """Copy live elements into a fresh, linearised buffer."""
        keys = np.empty(new_cap, dtype=np.int64)
        times = np.empty(new_cap, dtype=np.float64)
        ops = np.empty(new_cap, dtype=np.int8)
        qi = self._qi
        size = qi[Q_SIZE]
        if size:
            # At most two contiguous ring segments — copy them as slices
            # instead of materialising an arange-modulo index array.
            head, cap = qi[Q_HEAD], self.capacity
            first = min(size, cap - head)
            keys[:first] = self._keys[head : head + first]
            times[:first] = self._times[head : head + first]
            ops[:first] = self._ops[head : head + first]
            rest = size - first
            if rest:
                keys[first:size] = self._keys[:rest]
                times[first:size] = self._times[:rest]
                ops[first:size] = self._ops[:rest]
        self._keys, self._times, self._ops = keys, times, ops
        qi[Q_HEAD] = 0
        qi[Q_CAP] = new_cap
        qi[Q_GEN] += 1

    def _tail_spans(self, n: int) -> tuple[slice, slice | None, int]:
        """Ring slots for appending ``n`` items: one or two slices."""
        cap = self.capacity
        tail = (self._head + self._size) % cap
        end = tail + n
        if end <= cap:
            return slice(tail, end), None, 0
        first = cap - tail
        return slice(tail, cap), slice(0, n - first), first

    def _note_keys(self, keys: np.ndarray) -> None:
        qi = self._qi
        lo = int(keys.min())
        hi = int(keys.max())
        if lo < qi[Q_KEY_LO]:
            qi[Q_KEY_LO] = lo
        if hi > qi[Q_KEY_HI]:
            qi[Q_KEY_HI] = hi

    def _disorder(self) -> None:
        """Record an out-of-order push: every live tuple (up to the
        watermark) may be out of order, and the next in-order push starts
        a fresh ordered run behind them."""
        qi = self._qi
        qi[Q_ORDERED] = 0
        qi[Q_MARK] = qi[Q_CONSUMED] + qi[Q_SIZE]
        self._qf[QF_TAIL] = -np.inf

    def push(self, batch: Batch) -> None:
        """Append a batch at the tail (FIFO order preserved).

        The batch's times are arbitrary (a migration hand-off carries the
        source queue's times), so this is an out-of-order push.
        """
        n = len(batch)
        if n == 0:
            return
        if self._size + n > self.capacity:
            self._grow(n)
        lo, hi, first = self._tail_spans(n)
        self._keys[lo] = batch.keys if hi is None else batch.keys[:first]
        self._times[lo] = batch.times if hi is None else batch.times[:first]
        self._ops[lo] = batch.ops if hi is None else batch.ops[:first]
        if hi is not None:
            self._keys[hi] = batch.keys[first:]
            self._times[hi] = batch.times[first:]
            self._ops[hi] = batch.ops[first:]
        qi = self._qi
        qi[Q_SIZE] += n
        qi[Q_PROBES] += int(np.count_nonzero(batch.ops == OP_PROBE))
        self._disorder()
        self._note_keys(batch.keys)

    def push_block(self, keys: np.ndarray, time: float, op: int) -> None:
        """Append keys that share one visible-time and one operation.

        This is the dispatcher's hot path: a scatter segment is a block of
        same-op tuples emitted in one tick toward one destination, so the
        time and op are scalars — broadcasting them here avoids building
        throwaway per-tuple arrays for every (tick, destination) pair.
        """
        n = int(keys.shape[0])
        if n == 0:
            return
        qi = self._qi
        size = qi[Q_SIZE]
        cap = self._keys.shape[0]
        if size + n > cap:
            self._grow(n)
            cap = self._keys.shape[0]
        tail = (qi[Q_HEAD] + size) % cap
        end = tail + n
        if end <= cap:
            self._keys[tail:end] = keys
            self._times[tail:end] = time
            self._ops[tail:end] = op
        else:
            first = cap - tail
            self._keys[tail:] = keys[:first]
            self._keys[: n - first] = keys[first:]
            self._times[tail:] = time
            self._times[: n - first] = time
            self._ops[tail:] = op
            self._ops[: n - first] = op
        qi[Q_SIZE] = size + n
        if op == OP_PROBE:
            qi[Q_PROBES] += n
        if time < self._qf[QF_TAIL]:
            self._disorder()
        else:
            self._qf[QF_TAIL] = time
        self._note_keys(keys)

    def _live_indices(self, n: int) -> np.ndarray:
        return (self._head + np.arange(n)) % self.capacity

    def peek_visible(self, now: float, limit: int | None = None) -> Batch:
        """Return (without removing) the longest visible FIFO prefix.

        A tuple is visible when its arrival time is <= ``now``.  FIFO order
        is by *enqueue* order; a not-yet-visible tuple blocks everything
        behind it (queues are per-destination, so this models an ordered
        channel, matching Storm's per-task stream semantics).

        The returned batch may share memory with the queue's ring buffer
        or its scratch arena; it is valid until the next ``push``/``_grow``
        or the next wrapped peek on this queue.  Callers that hold on to it
        across mutations must copy.
        """
        qi = self._qi
        size = qi[Q_SIZE]
        n = size if limit is None else min(size, int(limit))
        if n == 0:
            return Batch.empty()
        head = qi[Q_HEAD]
        cap = self._keys.shape[0]  # inlined ``capacity`` (hot path)
        ordered = qi[Q_ORDERED]
        if head + n <= cap:
            # Contiguous live prefix: slice views, no fancy-index copies.
            times = self._times[head : head + n]
            if ordered:
                # Nondecreasing times: when even the last requested tuple
                # is visible (a backlogged queue peeked with a limit — the
                # steady state) one scalar read answers; otherwise the
                # visibility cut is a bisection.
                if times[n - 1] <= now:
                    cut = n
                else:
                    cut = int(times.searchsorted(now, side="right"))
            else:
                invisible = np.nonzero(times > now)[0]
                cut = int(invisible[0]) if invisible.size else n
            if cut == 0:
                return Batch.empty()
            return Batch.wrap(
                self._keys[head : head + cut],
                times[:cut],
                self._ops[head : head + cut],
            )
        # Wrapped live prefix: the ring holds two contiguous segments —
        # [head:cap] and [0:n-first].  The ordered datapath resolves the
        # visibility cut per segment with bisection; when the cut lands
        # inside the first segment the peek stays slice-backed, otherwise
        # the two visible pieces are stitched into arena scratch (no
        # arange-modulo index materialisation either way).
        first = cap - head
        if ordered:
            times1 = self._times[head:cap]
            cut1 = int(times1.searchsorted(now, side="right"))
            if cut1 < first:
                if cut1 == 0:
                    return Batch.empty()
                return Batch.wrap(
                    self._keys[head : head + cut1],
                    times1[:cut1],
                    self._ops[head : head + cut1],
                )
            rest = n - first
            cut2 = int(self._times[:rest].searchsorted(now, side="right"))
            if cut2 == 0:
                return Batch.wrap(self._keys[head:cap], times1, self._ops[head:cap])
            m = first + cut2
            keys = self._arena.array("peek_keys", m, np.int64)
            times = self._arena.array("peek_times", m, np.float64)
            ops = self._arena.array("peek_ops", m, np.int8)
            keys[:first] = self._keys[head:cap]
            keys[first:] = self._keys[:cut2]
            times[:first] = times1
            times[first:] = self._times[:cut2]
            ops[:first] = self._ops[head:cap]
            ops[first:] = self._ops[:cut2]
            return Batch.wrap(keys, times, ops)
        # Unordered wrapped ring: only until the disordered region left by
        # an out-of-order push into a wrapped queue has been consumed.
        idx = self._live_indices(n)
        times = self._times[idx]
        invisible = np.nonzero(times > now)[0]
        cut = int(invisible[0]) if invisible.size else n
        if cut == 0:
            return Batch.empty()
        idx = idx[:cut]
        return Batch.wrap(self._keys[idx], self._times[idx], self._ops[idx])

    def consume(self, n: int, n_probes: int | None = None) -> None:
        """Remove the first ``n`` tuples (they must have been peeked).

        ``n_probes`` is the number of probe operations among them when the
        caller already knows it (the join instance counts stores anyway);
        passing it skips re-scanning the consumed ops.
        """
        if n == 0:
            return
        qi = self._qi
        size = qi[Q_SIZE]
        if n > size:
            raise SimulationError(f"consume({n}) exceeds queue size {size}")
        head = qi[Q_HEAD]
        cap = self._keys.shape[0]
        if n_probes is None:
            if head + n <= cap:
                ops = self._ops[head : head + n]
            else:
                ops = self._ops[self._live_indices(n)]
            n_probes = int(np.count_nonzero(ops == OP_PROBE))
        probes = qi[Q_PROBES] - n_probes
        if probes < 0:
            raise SimulationError("probe counter underflow")
        qi[Q_PROBES] = probes
        qi[Q_HEAD] = (head + n) % cap
        size -= n
        qi[Q_SIZE] = size
        consumed = qi[Q_CONSUMED] + n
        qi[Q_CONSUMED] = consumed
        if not qi[Q_ORDERED]:
            if size == 0:
                # A drained queue is trivially ordered again.
                qi[Q_ORDERED] = 1
                self._qf[QF_TAIL] = -np.inf
            elif consumed >= qi[Q_MARK]:
                # The disordered region is served; everything behind it
                # was pushed in order.
                qi[Q_ORDERED] = 1

    def extract_keys(self, keys: set[int] | frozenset[int]) -> Batch:
        """Remove and return every queued tuple whose key is in ``keys``.

        Used by the migration protocol: tuples already queued at the source
        for migrated keys must follow the stored tuples to the target, or
        probes would run against an empty store (incomplete join) and
        stores would land on the wrong instance.
        """
        if self._size == 0 or not keys:
            return Batch.empty()
        live_keys, live_times, live_ops = self._live()
        key_arr = np.fromiter(keys, dtype=np.int64, count=len(keys))
        hit = np.isin(live_keys, key_arr)
        if not hit.any():
            return Batch.empty()
        out = Batch(
            keys=live_keys[hit].copy(),
            times=live_times[hit].copy(),
            ops=live_ops[hit].copy(),
        )
        keep = ~hit
        kept = Batch(
            keys=live_keys[keep].copy(),
            times=live_times[keep].copy(),
            ops=live_ops[keep].copy(),
        )
        # Rebuild the buffer with the survivors; counters recomputed on push.
        # A subsequence of an ordered queue is still ordered (and an empty
        # one trivially), so the ordered flag survives the rebuild.
        was_ordered = self._monotonic
        self._head = 0
        self._size = 0
        self._n_probes = 0
        self.push(kept)
        if was_ordered or not len(kept):
            self._monotonic = 1
            self._tail_time = float(kept.times[-1]) if len(kept) else -np.inf
        return out

    def clear(self) -> Batch:
        """Drain the whole queue, returning its contents in FIFO order."""
        keys, times, ops = self._live()  # fancy-indexed, already copies
        everything = Batch(keys=keys, times=times, ops=ops)
        self._head = 0
        self._size = 0
        self._n_probes = 0
        self._monotonic = 1
        self._tail_time = -np.inf
        return everything

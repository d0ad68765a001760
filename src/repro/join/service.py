"""The service pass: every join instance of a runtime served per tick
(DESIGN §9).

:class:`ServiceTable` is the struct of arrays the pass runs over and the
pass itself, on the C kernel of :mod:`repro.engine.ckernels` or on its
numpy reference, chosen once per table.  The numpy reference serves each
staged chunk with :func:`service_numpy`, the per-chunk kernel::

    n_take, n_stored, n_results, spent = service_numpy(
        inst, batch, n_stores, match_counts, bounds, credit, now,
        fblk, iblk, bblk)

which adds the intra-chunk same-key correction into ``match_counts`` (the
stored counts gathered at chunk start; None for a pure-store chunk),
prices every tuple, serves while ``credit`` lasts (one overdraft tuple
allowed) and returns the tuples taken, the stores among them, the join
results of the taken probes and the work spent.  The scratch blocks are
the caller's, ``fblk`` 6n float64, ``iblk`` 3n int64 and ``bblk`` 2n bool
for an n-tuple chunk: ``bblk[:n]`` holds the store mask on entry; on
return ``fblk[:n_take]`` holds the taken tuples' service components and
``fblk[n:n + n_take]`` their latencies; ``fblk[3n:]`` and ``iblk[2n:]``
are the caller's.  The C kernel repeats every float operation of the
reference in the same order, so both give byte-identical results.
"""

from __future__ import annotations

import numpy as np

from ..engine import ckernels as _ck
from ..engine.arena import Arena
from ..engine.columns import (
    DENSE_KEY_CAP,
    F_CAPACITY,
    F_CREDIT,
    F_EWMA,
    F_FLOOR,
    F_PAUSE_END,
    F_PAUSED,
    F_RESULTS,
    F_TAU,
    FL_COUNTER,
    FL_GATHER,
    FL_GROW,
    FL_MIG,
    FL_OBS,
    FL_PSK,
    FL_REC,
    FL_STORE,
    FL_TRACK,
    FL_WAL,
    HOOK_FT,
    HOOK_OBS,
    HOOK_TRACK,
    I_CRASHED,
    I_DENSE_LEN,
    I_HOOKS,
    I_MAX_CHUNK,
    I_P_DENSE,
    I_P_KEYS,
    I_P_OPS,
    I_P_ROW,
    I_P_TIMES,
    I_PROBED,
    I_QGEN_SEEN,
    I_QUEUE,
    I_ROW_LEN,
    I_SGEN_SEEN,
    I_STORED,
    MODEL_INDEXED,
    MODEL_OTHER,
    MODEL_SCAN,
    N_FLOAT,
    N_INT,
    NR_FLOAT,
    NR_INT,
    Q_GEN,
    Q_KEY_HI,
    Q_KEY_LO,
    R_FLAGS,
    R_N,
    R_NSTORES,
    R_OFF,
    R_SEG,
    R_STORED,
    R_TAKE,
    RF_LATENCY,
    RF_MIGRATION,
    RF_RECOVERY,
    RF_RESULTS,
    RF_SERVICE,
    RF_SPENT,
    S_GEN,
)
from ..engine.cost import CostModel, IndexedCost, ScanCost
from ..engine.tuples import OP_STORE, Batch
from ..errors import SimulationError

__all__ = ["ServiceTable", "select_kernel", "service_numpy"]


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
    bounds: tuple[int, int],
) -> None:
    """Add each position's prior-same-key-store count into ``match_counts``.

    Allocation-free equivalent of ``match_counts += _prior_same_key_stores``
    for the hot path, on a chunk holding at least one store.  Positions
    before the first store need no correction, so the pass covers only the
    suffix from it — usually just the tail blocks of a mostly-probe chunk.
    Small suffixes (the typical case: service chunks run a few dozen
    tuples) take a scalar dict loop — integer adds, bit-identical by
    construction.  Larger ones replace the stable argsort over keys with an
    *in-place* sort of the composite ``key << 32 | position`` into arena
    scratch (unique composites make the sorted order identical to the
    stable grouped-by-key order — the same trick the dispatcher's counting
    scatter uses), and every intermediate lives in the arena.  The final
    scatter-add ``np.add.at(match_counts, positions, within_group_prefix)``
    is the permutation-inverse of the reference implementation's fancy
    assignment, so the accumulated values are bit-identical.

    Keys outside ``[0, 2**31)`` cannot ride the composite; such chunks
    (never produced by the shipped workloads) fall back to the reference
    implementation.  ``bounds`` is the caller's conservative key range
    (the queue's push-time bounds), which replaces min/max reductions.
    """
    i0 = int(store_mask.argmax())
    keys = keys[i0:]
    store_mask = store_mask[i0:]
    match_counts = match_counts[i0:]
    n = keys.shape[0]
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
    lo, hi = bounds
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


def service_numpy(inst, batch, n_stores, match_counts, bounds, credit, now,
                  fblk, iblk, bblk):
    """The reference service kernel: in-place numpy ops on arena scratch.

    The chunk's store/probe composition picks one of three paths: all-store
    chunks never consult the keyed store, all-probe chunks (the common case
    under broadcast probes) skip the store-prefix cumsum and the boolean-mask
    copies, and only mixed chunks pay for the intra-chunk same-key
    correction.
    """
    n = batch.keys.shape[0]
    store_mask = bblk[:n]
    any_stores = n_stores > 0
    cost_model = inst.cost_model
    store_cost = cost_model.store_cost
    costs = fblk[:n]
    cum = fblk[n : 2 * n]
    if match_counts is None:
        # Pure store chunk: no probes, no matches, uniform cost.
        costs.fill(float(store_cost))
    else:
        if any_stores:
            # Matches are exact even intra-chunk: the stored count at chunk
            # start plus same-key stores served earlier in this chunk.
            _accumulate_prior_same_key_stores(
                batch.keys, store_mask, match_counts, inst._arena, bounds
            )
            if cost_model.uses_store_sizes:
                # |R_i| in effect at each position: start size plus stores
                # already applied earlier in the chunk.
                sizes_at = iblk[n : 2 * n]
                np.copyto(sizes_at, store_mask, casting="unsafe")
                sizes_at.cumsum(out=sizes_at)
                np.subtract(sizes_at, store_mask, out=sizes_at)
                sizes_at += inst.store.total
            else:
                # The cost model ignores store sizes: skip the prefix pass
                # and pass a placeholder.
                sizes_at = match_counts
        else:
            # No stores in the chunk: the store size is constant; a scalar
            # broadcasts through the cost arithmetic.
            sizes_at = np.int64(inst.store.total)
        # probe_costs writes into the arena buffer; overwrite the store
        # positions in place instead of a second np.where allocation.
        cost_model.probe_costs(
            sizes_at, match_counts, out=costs, scratch=fblk[2 * n : 3 * n]
        )
        if any_stores:
            np.copyto(costs, store_cost, where=store_mask)
    costs.cumsum(out=cum)
    # Serve tuple t while credit is still positive when t starts, i.e.
    # while its exclusive prefix cost cum[t-1] is < credit (allows one
    # overdraft tuple, modelling partial service carried into the next
    # tick).  The first inclusive prefix >= credit is that boundary.  When
    # even the full chunk fits in the credit (backlog drained — a frequent
    # steady state) the scalar tail read settles it without a bisection.
    if cum[n - 1] < credit:
        n_take = n
    else:
        n_take = int(cum.searchsorted(credit, side="left")) + 1
        if n_take > n:
            n_take = n
    spent = float(cum[n_take - 1])

    if not any_stores:
        n_stored = 0
    elif n_take == n:
        n_stored = n_stores
    else:
        n_stored = int(_count_nonzero(store_mask[:n_take]))
    if n_take == n_stored:
        n_results = 0.0
    elif n_stored == 0:
        n_results = float(np.add.reduce(match_counts[:n_take]))
    else:
        # Sum the probe positions only; a masked reduction over the integer
        # match counts equals summing the compressed array.
        nmask = bblk[n : n + n_take]
        np.logical_not(store_mask[:n_take], out=nmask)
        n_results = float(np.add.reduce(match_counts[:n_take], where=nmask))

    # Per-tuple completion time within the tick: the instant the tuple's
    # cumulative work finished at this capacity.  latency = completion -
    # arrival; the overdraft tuple may nominally finish just past the tick
    # boundary, which is the intended carry-over semantics.  (latency =
    # max(now + cum/capacity - arrival, 0) + offset, in place on ``cum``.)
    capacity = inst.capacity
    latencies = cum[:n_take]
    latencies /= capacity
    latencies += now
    latencies -= batch.times[:n_take]
    np.maximum(latencies, 0.0, out=latencies)
    # Latency attribution (DESIGN §5), taken before the offset lands so the
    # component is clipped against the measured queue+service window.
    # service = min(own cost / capacity, clamped pre-offset latency): equal
    # to the tuple's full service time except for mid-tick arrivals, whose
    # latency window starts after their service began.  ``costs`` is dead
    # once ``cum`` was taken, so the division reuses its buffer.
    comp_service = costs[:n_take]
    comp_service /= capacity
    np.minimum(comp_service, latencies, out=comp_service)
    if inst.latency_offset:
        latencies += inst.latency_offset
    return n_take, n_stored, n_results, spent


def model_code(cost_model: CostModel) -> int:
    """The cost model's ``I_MODEL`` code in the service table: an exact
    type check, since a subclass may override ``probe_costs``."""
    if type(cost_model) is ScanCost:
        return MODEL_SCAN
    if type(cost_model) is IndexedCost:
        return MODEL_INDEXED
    return MODEL_OTHER


def select_kernel(cost_model: CostModel) -> str:
    """The kernel an instance with ``cost_model`` can be served by:
    ``"c"`` when the C kernel is built and the model is exactly
    :class:`ScanCost` or :class:`IndexedCost`, ``"numpy"`` otherwise."""
    if _ck.lib is not None and model_code(cost_model) != MODEL_OTHER:
        return "c"
    return "numpy"


_PREPARE = FL_PSK | FL_GROW | FL_COUNTER
_AFTER = FL_STORE | FL_WAL | FL_TRACK | FL_OBS


class ServiceTable:
    """The struct of arrays one service pass per tick runs over.

    Building a table *adopts* its instances: each instance's scalars, its
    queue's cursors and its store's total move into one column of the
    table's int64/float64 blocks (rows in :mod:`repro.engine.columns`), and
    the objects read and write them there from then on.  A runtime owns one
    table over all of its instances; a standalone :class:`JoinInstance`
    owns a one-column table, so :meth:`JoinInstance.step` is the same pass
    over one column.

    :meth:`run` serves columns ``[lo, hi)`` for one tick:

    1. *plan* — backlog EWMA, crash/pause and credit decisions, the
       visibility cut of each queue, on the C kernel the cost-bounded cut
       (the chunk ends at the first tuple where a lower bound of its price
       prefix reaches the credit: the true cutoff never lies past it) and
       the staging of every chunk into one concatenated key/time/store-mask
       block;
    2. *gather* — each probe-carrying chunk's stored counts, through the
       store method the instance bound at construction, plus growth of the
       dense tables, window rows and counter table the kernel will write;
    3. *serve* — same-key correction, pricing, credit cutoff, latencies,
       service components and pause overlaps, consume bookkeeping, the
       store add, lifetime totals and the tick's report block with
       numpy-order sums;
    4. the rare paths the kernel flags: out-of-range store keys, WAL
       copy-out, per-key result tracking and observability.

    Plan and serve run in C when every instance can be served by it
    (:func:`select_kernel`) and in numpy otherwise, chosen once; both
    leave byte-identical served state and reports (the numpy plan stages
    the floor-bounded chunk, the C plan only the cut prefix of it).  The report block holds, per
    column, the served/stored counts, results, spent work and the sums of
    latencies and components (``R_*``/``RF_*`` rows), with the served
    tuples' latencies, service components and pause overlaps concatenated
    in column order in :attr:`lat`/:attr:`comp`/:attr:`mig`/:attr:`rec` at
    offset ``R_SEG`` (the overlaps only where ``FL_MIG``/``FL_REC`` say
    the column carries them).  It is valid until the next :meth:`run`;
    :meth:`fold` sums it for the metrics collector.
    """

    def __init__(self, instances) -> None:
        self.instances = list(instances)
        w = self.width = len(self.instances)
        self.ints = np.zeros((N_INT, w), dtype=np.int64)
        self.floats = np.zeros((N_FLOAT, w), dtype=np.float64)
        self.rep_i = np.zeros((NR_INT, w), dtype=np.int64)
        self.rep_f = np.zeros((NR_FLOAT, w), dtype=np.float64)
        for slot, inst in enumerate(self.instances):
            self.ints[:, slot] = inst._i
            self.floats[:, slot] = inst._f
            inst._bind(self, slot)
        # Force a pointer refresh on the first pass.
        self.ints[I_QGEN_SEEN] = -1
        self._match = [inst._match_counts for inst in self.instances]
        self._arena = Arena()
        self.kernel = (
            "c" if _ck.lib is not None
            and all(i.service_kernel == "c" for i in self.instances)
            else "numpy"
        )
        #: queued tuples after the last pass, their maximum, tuples served
        self.qlen_sum = self.qlen_max = self.n_served = 0
        self._room = 0
        self._stage(64)
        self._grow_counter(64)
        if self.kernel == "c":
            buf = _ck.ffi.from_buffer
            self._c_blocks = (
                buf("double[]", self.floats), buf("int64_t[]", self.ints),
                buf("int64_t[]", self.rep_i), buf("double[]", self.rep_f),
            )
            self._c_out = _ck.ffi.new("int64_t[4]")
            new = _ck.ffi.new
            self._c_fold = (new("double[6]"), new("int64_t[6]"),
                            new("double[5]"), new("int64_t[2]"))
        self.refresh_hooks()

    # -- bookkeeping ----------------------------------------------------- #

    def refresh_hooks(self) -> None:
        """Re-read which instances carry a checkpointer (their crash flag
        is refreshed before every pass)."""
        self._ft = [
            (slot, inst._ft) for slot, inst in enumerate(self.instances)
            if inst._ft is not None
        ]

    def _stage(self, m: int) -> None:
        """Size the staging and report blocks for ``m`` tuples."""
        a = self._arena
        ints = a.array("stage_i", 2 * m, np.int64)
        floats = a.array("stage_f", 5 * m, np.float64)
        self._keys, self._counts = ints[:m], ints[m:]
        (self._times, self.lat, self.comp, self.mig,
         self.rec) = floats.reshape(5, m)
        self._mask = a.array("stage_b", m, np.bool_)
        self._room = m
        if self.kernel == "c":
            buf = _ck.ffi.from_buffer
            self._c_stage = (
                buf("int64_t[]", self._keys), buf("double[]", self._times),
                buf("unsigned char[]", self._mask),
                buf("int64_t[]", self._counts), buf("double[]", self.lat),
                buf("double[]", self.comp), buf("double[]", self.mig),
                buf("double[]", self.rec),
            )

    def _grow_counter(self, n: int) -> None:
        """The shared same-key counter table, all-zero between chunks."""
        self._cnt = self._arena.zeros("psk_cnt", n, np.int64)
        if self.kernel == "c":
            self._c_cnt = _ck.ffi.from_buffer("int64_t[]", self._cnt)

    def _take_pointers(self, lo: int, hi: int) -> None:
        """Record the ring, dense-table and window-row addresses of
        columns ``[lo, hi)`` for the C kernel."""
        ints = self.ints
        for slot in range(lo, hi):
            inst = self.instances[slot]
            q = inst.queue
            ints[I_P_KEYS, slot] = q._keys.ctypes.data
            ints[I_P_TIMES, slot] = q._times.ctypes.data
            ints[I_P_OPS, slot] = q._ops.ctypes.data
            ints[I_QGEN_SEEN, slot] = q._qi[Q_GEN]
            keyed = inst._keyed
            ints[I_P_DENSE, slot] = keyed._dense.ctypes.data
            ints[I_DENSE_LEN, slot] = keyed._dense.shape[0]
            if keyed is inst.store:
                ints[I_P_ROW, slot] = ints[I_ROW_LEN, slot] = 0
            else:
                row = inst.store._ring[inst.store._current_row]
                ints[I_P_ROW, slot] = row.ctypes.data
                ints[I_ROW_LEN, slot] = row.shape[0]
            ints[I_SGEN_SEEN, slot] = keyed._si[S_GEN]

    def make_room(self, slot: int, n: int) -> None:
        """Grow column ``slot``'s queue for ``n`` more tuples when it lacks
        the room (:meth:`TupleQueue.push_block`'s rule) and refresh its
        pointers: what the C dispatch asks for when it refuses."""
        q = self.instances[slot].queue
        if len(q) + n > q.capacity:
            q._grow(n)
        self._take_pointers(slot, slot + 1)

    # -- the pass -------------------------------------------------------- #

    def run(self, now: float, dt: float, lo: int = 0, hi: int | None = None,
            prof=None) -> int:
        """Serve columns ``[lo, hi)`` for the tick ``[now, now + dt)``;
        returns the number of tuples served.  With a profiler, the time
        goes to ``service.gather`` (plan + gather; work: tuples staged)
        and ``service.kernel`` (serve + rare paths; work: work units
        spent)."""
        if hi is None:
            hi = self.width
        if prof is not None:
            t0 = prof.now()
            mark = prof.mark_alloc()
        for slot, ft in self._ft:
            self.ints[I_CRASHED, slot] = ft.crashed
        c = self.kernel == "c"
        m = self._plan_c(lo, hi, now, dt) if c else self._plan_numpy(lo, hi, now, dt)
        if m:
            self._gather(lo, hi)
        if prof is not None:
            t1 = prof.now()
            prof.add("service.gather", t1 - t0, work=m,
                     alloc=prof.alloc_since(mark))
            mark = prof.mark_alloc()
        if c:
            flags = self._serve_c(lo, hi, now)
        else:
            flags = self._serve_numpy(lo, hi, now)
        if flags & _AFTER:
            self._after(lo, hi)
        if prof is not None:
            t2 = prof.now()
            served = self.rep_i[R_TAKE, lo:hi] > 0
            prof.add("service.kernel", t2 - t1,
                     work=float(self.rep_f[RF_SPENT, lo:hi][served].sum()),
                     alloc=prof.alloc_since(mark))
        return self.n_served

    def _plan_c(self, lo: int, hi: int, now: float, dt: float) -> int:
        lib = _ck.lib
        while True:
            cF, cI, cRI, _ = self._c_blocks
            ck, ct, cm = self._c_stage[:3]
            m = lib.service_plan(lo, hi, self.width, cF, cI, cRI, ck, ct, cm,
                                 self._room, self._cnt.shape[0], now, dt)
            if m < 0:
                self._take_pointers(lo, hi)
            elif m > self._room:
                self._stage(m)
            else:
                return m

    def _plan_numpy(self, lo: int, hi: int, now: float, dt: float) -> int:
        """The plan half in Python: each instance's former step up to the
        peek, with the peeked chunks staged like the C kernel stages them."""
        ri = self.rep_i
        ri[[R_N, R_TAKE, R_FLAGS], lo:hi] = 0
        end = now + dt
        chunks = []
        total = 0
        for slot in range(lo, hi):
            inst = self.instances[slot]
            f = inst._f
            queue = inst.queue
            tau = f[F_TAU]
            if tau > 0:
                alpha = min(dt / tau, 1.0)
                f[F_EWMA] += alpha * (queue.probe_backlog - f[F_EWMA])
            else:
                f[F_EWMA] = float(queue.probe_backlog)
            if inst._i[I_CRASHED] or now < f[F_PAUSED]:
                continue
            f[F_PAUSED] = 0.0
            credit = f[F_CREDIT] + f[F_CAPACITY] * dt
            if len(queue) == 0 or credit <= 0:
                f[F_CREDIT] = min(credit, 0.0)
                continue
            affordable = int(credit / f[F_FLOOR]) + 1
            batch = queue.peek_visible(
                end, limit=min(inst._i[I_MAX_CHUNK], affordable)
            )
            n = len(batch)
            if n == 0:
                f[F_CREDIT] = min(credit, 0.0)
                continue
            f[F_CREDIT] = credit
            chunks.append((slot, batch))
            total += n
        if total > self._room:
            self._stage(total)
        off = 0
        for slot, batch in chunks:
            n = len(batch)
            o, off = off, off + n
            self._keys[o:off] = batch.keys
            self._times[o:off] = batch.times
            mask = self._mask[o:off]
            np.equal(batch.ops, OP_STORE, out=mask)
            n_stores = int(_count_nonzero(mask))
            flags = FL_GATHER if n_stores < n else 0
            if n_stores:
                klo, khi = self.instances[slot].queue.key_bounds
                if 0 <= klo and khi < DENSE_KEY_CAP and self._short(slot, khi):
                    flags |= FL_GROW
            ri[[R_N, R_NSTORES, R_OFF, R_FLAGS], slot] = (n, n_stores, o, flags)
        return total

    def _short(self, slot: int, khi: int) -> bool:
        """Whether the store of ``slot`` needs growth to add key ``khi``."""
        inst = self.instances[slot]
        if khi >= inst._keyed._dense.shape[0]:
            return True
        store = inst.store
        return store is not inst._keyed and khi >= store._ring.shape[1]

    def _gather(self, lo: int, hi: int) -> None:
        """Stored counts of every probe-carrying chunk, and the growth
        the kernel's writes need."""
        ri = self.rep_i[:, lo:hi].tolist()
        ns, nstores, offs, flags = ri[R_N], ri[R_NSTORES], ri[R_OFF], ri[R_FLAGS]
        klo, khi = self.ints[I_QUEUE + Q_KEY_LO : I_QUEUE + Q_KEY_HI + 1, lo:hi].tolist()
        keys, counts, match = self._keys, self._counts, self._match
        for j, fl in enumerate(flags):
            if not fl:
                continue
            o = offs[j]
            end = o + ns[j]
            if fl & FL_GATHER:
                out = counts[o:end]
                got = match[lo + j](keys[o:end], out=out, bounds=(klo[j], khi[j]))
                if got is not out:
                    out[:] = got
            if fl & _PREPARE:
                self._prepare(lo + j, fl, o, end, klo[j], khi[j])

    def _prepare(self, slot: int, fl: int, o: int, end: int, klo: int,
                 khi: int) -> None:
        inst = self.instances[slot]
        if fl & FL_PSK:
            _accumulate_prior_same_key_stores(
                self._keys[o:end], self._mask[o:end], self._counts[o:end],
                inst._arena, (klo, khi),
            )
        if fl & FL_COUNTER and khi >= self._cnt.shape[0]:
            self._grow_counter(khi + 1)
        if fl & FL_GROW:
            inst._keyed._ensure(khi)
            if inst.store is not inst._keyed:
                inst.store._widen(khi)
            if self.kernel == "c":
                self._take_pointers(slot, slot + 1)

    def _serve_c(self, lo: int, hi: int, now: float) -> int:
        cF, cI, cRI, cRF = self._c_blocks
        ck, ct, cm, cc, cl, cp, cg, cr = self._c_stage
        out = self._c_out
        if _ck.lib.service_tick(lo, hi, self.width, cF, cI, cRI, cRF, ck, ct,
                                cm, cc, cl, cp, cg, cr, self._c_cnt, now,
                                out):
            raise SimulationError("probe counter underflow")
        self.qlen_sum = out[0]
        self.qlen_max = out[1]
        self.n_served = out[2]
        return out[3]

    def _serve_numpy(self, lo: int, hi: int, now: float) -> int:
        """The serve half in Python around :func:`service_numpy`: each
        instance's former step from the kernel call on."""
        ri, rf = self.rep_i, self.rep_f
        rows = ri[:, lo:hi].tolist()
        takes, stores, segs, flags = (
            rows[R_TAKE], rows[R_STORED], rows[R_SEG], rows[R_FLAGS]
        )
        sums = rf[:, lo:hi].tolist()
        seg = 0
        qlen_sum = qlen_max = 0
        for j, n in enumerate(rows[R_N]):
            inst = self.instances[lo + j]
            queue = inst.queue
            if n:
                o = rows[R_OFF][j]
                n_stores = rows[R_NSTORES][j]
                keys = self._keys[o : o + n]
                times = self._times[o : o + n]
                arena = inst._arena
                fblk = arena.array("step_f", 6 * n, np.float64)
                iblk = arena.array("step_i", 3 * n, np.int64)
                bblk = arena.array("step_b", 2 * n, np.bool_)
                store_mask = bblk[:n]
                store_mask[:] = self._mask[o : o + n]
                match = None if n_stores == n else self._counts[o : o + n]
                bounds = queue.key_bounds
                f, ci = inst._f, inst._i
                credit = f[F_CREDIT]
                n_take, n_stored, n_results, spent = service_numpy(
                    inst, Batch.wrap(keys, times, None), n_stores, match,
                    bounds, credit, now, fblk, iblk, bblk,
                )
                leftover = credit - spent
                if n_take == n:
                    leftover = min(leftover, 0.0)
                f[F_CREDIT] = leftover
                fl = flags[j]
                sums[RF_MIGRATION][j] = sums[RF_RECOVERY][j] = 0.0
                if inst._log and not (
                    queue._monotonic and f[F_PAUSE_END] <= times[0]
                ):
                    for bit, row, dst, comp in zip(
                        (FL_MIG, FL_REC), (RF_MIGRATION, RF_RECOVERY),
                        (self.mig, self.rec),
                        inst._pause_overlaps(times[:n_take]),
                    ):
                        if comp is not None:
                            dst[seg : seg + n_take] = comp
                            sums[row][j] = float(np.add.reduce(comp))
                            fl |= bit
                n_probed = n_take - n_stored
                queue.consume(n_take, n_probes=n_probed)
                if n_stored:
                    weights = iblk[2 * n : 2 * n + n_take]
                    np.copyto(weights, store_mask[:n_take], casting="unsafe")
                    inst.store.add_weighted(
                        keys[:n_take], weights, n_stored, bounds=bounds
                    )
                ci[I_STORED] += n_stored
                ci[I_PROBED] += n_probed
                f[F_RESULTS] += n_results
                hooks = ci[I_HOOKS]
                if hooks & HOOK_FT and n_stored:
                    fl |= FL_WAL
                if hooks & HOOK_TRACK and n_probed:
                    fl |= FL_TRACK
                if hooks & HOOK_OBS:
                    fl |= FL_OBS
                lat = self.lat[seg : seg + n_take]
                comp = self.comp[seg : seg + n_take]
                lat[:] = fblk[n : n + n_take]
                comp[:] = fblk[:n_take]
                takes[j], stores[j], segs[j], flags[j] = n_take, n_stored, seg, fl
                for row, value in (
                    (RF_RESULTS, n_results), (RF_SPENT, spent),
                    (RF_LATENCY, float(np.add.reduce(lat))),
                    (RF_SERVICE, float(np.add.reduce(comp))),
                ):
                    sums[row][j] = value
                seg += n_take
            qlen = len(queue)
            qlen_sum += qlen
            if qlen > qlen_max:
                qlen_max = qlen
        ri[:, lo:hi] = rows
        rf[:, lo:hi] = sums
        self.qlen_sum = qlen_sum
        self.qlen_max = qlen_max
        self.n_served = seg
        all_flags = 0
        for fl in flags:
            all_flags |= fl
        return all_flags

    def _after(self, lo: int, hi: int) -> None:
        """The rare paths the kernel flagged, in column order."""
        ri = self.rep_i
        for j in np.flatnonzero(ri[R_FLAGS, lo:hi] & _AFTER).tolist():
            slot = lo + j
            take = int(ri[R_TAKE, slot])
            fl = int(ri[R_FLAGS, slot])
            o = int(ri[R_OFF, slot])
            stored = int(ri[R_STORED, slot])
            inst = self.instances[slot]
            keys = self._keys[o : o + take]
            mask = self._mask[o : o + take]
            if fl & FL_STORE:
                # Keys outside the dense table's range: the store's
                # general path (overflow dict).
                weights = inst._arena.array("weights", take, np.int64)
                np.copyto(weights, mask, casting="unsafe")
                inst.store.add_weighted(
                    keys, weights, stored, bounds=inst.queue.key_bounds
                )
            if fl & FL_WAL:
                # WAL append: crash recovery replays these keys on top of
                # the last checkpoint.  The WAL retains the array, so the
                # mask-indexed copy is the copy-out point, never scratch.
                inst._ft.record_stores(keys[mask])
            if fl & FL_TRACK:
                counts = inst._result_counts
                results = self._counts[o : o + take]
                if stored:
                    keep = ~mask
                    keys = keys[keep]
                    results = results[keep]
                for k, c in zip(keys.tolist(), results.tolist()):
                    if c:
                        counts[k] += c
            if fl & FL_OBS:
                inst.obs.on_instance_step(inst, self.report(slot))

    def report(self, slot: int):
        """Column ``slot``'s part of the last pass as the instance's
        (reused) :class:`ServiceReport`, whose arrays alias the report
        block."""
        ri = self.rep_i[:, slot].tolist()
        take = ri[R_TAKE]
        seg = ri[R_SEG]
        fl = ri[R_FLAGS]
        rep = self.instances[slot]._report
        rep.n_processed = take
        rep.n_stored = ri[R_STORED]
        rep.n_probed = take - ri[R_STORED]
        rep.n_results = float(self.rep_f[RF_RESULTS, slot])
        rep.work_units = float(self.rep_f[RF_SPENT, slot])
        rep.latencies = self.lat[seg : seg + take]
        rep.comp_service = self.comp[seg : seg + take]
        rep.comp_migration = (
            self.mig[seg : seg + take] if fl & FL_MIG else None
        )
        rep.comp_recovery = self.rec[seg : seg + take] if fl & FL_REC else None
        return rep

    def fold(self, running: list, in_window: bool):
        """Fold the last pass's report block into one second's running
        sums, in column order, the way the metrics collector adds them.

        ``running`` is ``[results, latency, latency after warm-up,
        service, migration, recovery]``; a ``None`` entry (no sum for the
        second yet) stays ``None`` unless a nonzero value lands on it.
        Latency sums to the warm-up total only when ``in_window``.
        Returns ``(running, tick, n_served, n_results)``: the updated sums,
        this tick's ``[results, latency, service, migration, recovery]``
        summed from 0.0, the tuples served and the results rounded per
        column.  On the C kernel when the table serves on it
        (``service_fold``), with the same additions in the same order
        otherwise.
        """
        if self.kernel == "c":
            v, has, tick, n = self._c_fold
            for c, x in enumerate(running):
                has[c] = x is not None
                v[c] = x if has[c] else 0.0
            _, _, cRI, cRF = self._c_blocks
            _ck.lib.service_fold(0, self.width, self.width, cRI, cRF,
                                 in_window, v, has, tick, n)
            out = [v[c] if has[c] else None for c in range(6)]
            return out, list(tick), n[0], n[1]
        served = self.rep_i[R_TAKE] > 0
        rf = self.rep_f[:, served].tolist()
        results, lat, lat_total, *comps = running
        t_res = t_lat = 0.0
        rounded = 0
        for r, s in zip(rf[RF_RESULTS], rf[RF_LATENCY]):
            t_res += r
            if r:
                results = (0.0 if results is None else results) + r
                rounded += int(round(r))
            lat += s
            if in_window:
                lat_total += s
            t_lat += s
        tick = [t_res, t_lat]
        for c, row in enumerate((RF_SERVICE, RF_MIGRATION, RF_RECOVERY)):
            acc = comps[c]
            t = 0.0
            for x in rf[row]:
                if x:
                    acc = (0.0 if acc is None else acc) + x
                    t += x
            comps[c] = acc
            tick.append(t)
        n_served = int(self.rep_i[R_TAKE, served].sum())
        return [results, lat, lat_total, *comps], tick, n_served, rounded

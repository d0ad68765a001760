"""The per-chunk service kernel of a join instance (DESIGN §9).

:meth:`JoinInstance.step <repro.join.instance.JoinInstance.step>` does the
bookkeeping around a service chunk (credit, peek, consume, store, report)
and hands the computation in between to a kernel, chosen once per
instance by :func:`select_kernel`: :func:`service_numpy`, the reference
chain of in-place numpy ops, or the C kernel around
:mod:`repro.engine.ckernels`, which repeats every float operation in the
same order and so gives byte-identical outputs.  A call::

    n_take, n_stored, n_results, spent = kernel(
        inst, batch, n_stores, match_counts, bounds, credit, now,
        fblk, iblk, bblk)

adds the intra-chunk same-key correction into ``match_counts`` (the
stored counts gathered at chunk start; None for a pure-store chunk),
prices every tuple, serves while ``credit`` lasts (one overdraft tuple
allowed) and returns the tuples taken, the stores among them, the join
results of the taken probes and the work spent.  The scratch blocks are
the caller's, ``fblk`` 6n float64, ``iblk`` 3n int64 and ``bblk`` 2n bool
for an n-tuple chunk: ``bblk[:n]`` holds the store mask on entry; on
return ``fblk[:n_take]`` holds the taken tuples' service components and
``fblk[n:n + n_take]`` their latencies; ``fblk[3n:]`` and ``iblk[2n:]``
are the caller's.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..engine import ckernels as _ck
from ..engine.arena import Arena
from ..engine.cost import CostModel, IndexedCost, ScanCost

__all__ = ["select_kernel", "service_numpy", "track_results"]


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

#: Dense same-key counter cap for the C correction: bounds above this
#: would ask for a >16 MB counter table, so such chunks (no shipped
#: workload comes close) take the numpy correction.
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


def _service_c(cost_model: CostModel):
    """The C kernel for one of the two shipped cost models: the same-key
    correction (``psk_correct``) and the fused ``step_service`` pass."""
    lib = _ck.lib
    ffi = _ck.ffi
    buf = ffi.from_buffer
    null = ffi.NULL
    model = 0 if type(cost_model) is ScanCost else 1
    store_cost = float(cost_model.store_cost)
    probe_base = float(cost_model.probe_base)
    scan_coeff = float(getattr(cost_model, "scan_coeff", 0.0))
    emit_cost = float(cost_model.emit_cost)
    out_i = ffi.new("int64_t[3]")
    out_d = ffi.new("double[1]")

    def service_c(inst, batch, n_stores, match_counts, bounds, credit, now,
                  fblk, iblk, bblk):
        keys = batch.keys
        n = keys.shape[0]
        mask = buf("unsigned char[]", bblk)
        if match_counts is None:
            match = null
        else:
            match = buf("int64_t[]", match_counts)
            if n_stores:
                lo, hi = bounds
                if 0 <= lo and hi < _PSK_C_CAP:
                    # One O(n) pass over dense per-key running counters.
                    # The counter buffer is all-zero between calls (the
                    # kernel un-writes the slots it touched), so
                    # ``Arena.zeros`` never has to clear it.
                    cnt = inst._arena.zeros("psk_cnt", hi + 1, np.int64)
                    lib.psk_correct(
                        buf("int64_t[]", keys), mask, match, n,
                        buf("int64_t[]", cnt),
                    )
                else:  # key-range guard: no dense counter table
                    _accumulate_prior_same_key_stores(
                        keys, bblk[:n], match_counts, inst._arena, bounds
                    )
        costs = buf("double[]", fblk)
        lib.step_service(
            match, mask, buf("double[]", batch.times), costs, costs + n, n,
            inst.store.total, model, 1 if match_counts is None else 0,
            store_cost, probe_base, scan_coeff, emit_cost, credit,
            inst.capacity, now, inst.latency_offset, out_i, out_d,
        )
        return out_i[0], out_i[1], float(out_i[2]), out_d[0]

    return service_c


def select_kernel(cost_model: CostModel) -> tuple[str, Callable]:
    """``(name, kernel)`` serving ``cost_model``: ``"c"`` when the C
    kernels are built and the model is exactly :class:`ScanCost` or
    :class:`IndexedCost`, ``"numpy"`` otherwise."""
    if _ck.lib is not None and type(cost_model) in (ScanCost, IndexedCost):
        return "c", _service_c(cost_model)
    return "numpy", service_numpy


def track_results(kernel: Callable, counts: dict[int, float]) -> Callable:
    """Wrap ``kernel`` to fold each taken probe's join results into
    ``counts`` (a key -> results ``defaultdict(float)``), for the
    differential validation layer.  Allocating the compacted views is
    fine: validation is not the hot path, and the bare datapath never
    runs this wrapper."""

    def tracked(inst, batch, n_stores, match_counts, bounds, credit, now,
                fblk, iblk, bblk):
        out = kernel(inst, batch, n_stores, match_counts, bounds, credit,
                     now, fblk, iblk, bblk)
        n_take, n_stored = out[0], out[1]
        if n_take > n_stored:
            keys = batch.keys[:n_take]
            results = match_counts[:n_take]
            if n_stored:
                keep = ~bblk[:n_take]
                keys = keys[keep]
                results = results[keep]
            for k, c in zip(keys.tolist(), results.tolist()):
                if c:
                    counts[k] += c
        return out

    return tracked

"""Keyed tuple stores for join instances.

In the performance simulator a store only needs per-key *counts*: the join
output for a probe with key ``k`` is ``|R_ik|`` result tuples, migration
moves ``|R_ik|`` tuples, and the load model consumes ``|R_i|`` (Eq. 3).
Payloads never influence any measured quantity, so carrying them would only
slow the simulation down (the exact-semantics engine in
:mod:`repro.join.exact` does carry real tuples).

The count table is a *dense* int64 array indexed by key id: the hot-path
operations (``match_counts`` for a batch of probes, ``add_batch`` for a
batch of stores) become one fancy-index read and one ``np.add.at``, with no
per-key Python.  Key ids in every shipped workload are small non-negative
integers (location ids, Zipf ranks), so the dense array stays a few KB; a
key that is negative or astronomically large falls back to a dict overflow
table, which keeps the public API total (any int64 is a valid key) without
letting a pathological key allocate gigabytes.

:class:`KeyedStore` is the unbounded full-history store (BiStream's default
near-full-history join).  :class:`repro.join.window.WindowedStore` layers
sub-window eviction on top for the window-based join of paper section III-E.
"""

from __future__ import annotations

import numpy as np

from ..engine.columns import DENSE_KEY_CAP, S_GEN, S_NINT, S_TOTAL, column_field
from ..errors import StorageError

__all__ = ["KeyedStore", "DENSE_KEY_CAP", "sorted_union"]

_MIN_DENSE = 1024


def _grow_to(size: int) -> int:
    """Next power-of-two capacity covering ``size`` slots."""
    cap = _MIN_DENSE
    while cap < size:
        cap <<= 1
    return min(cap, DENSE_KEY_CAP)


def sorted_union(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union of two sorted, duplicate-free int64 key arrays.

    Returns ``(keys, pos_a, pos_b)`` with ``keys[pos_a] == a`` and
    ``keys[pos_b] == b``, so per-key counts of either side scatter onto
    the union.  The concatenation is two sorted runs, which the stable
    sort merges in one linear pass (``np.union1d`` sorts from scratch and
    is several times slower on a store-sized array).
    """
    keys = np.concatenate([a, b])
    keys.sort(kind="stable")
    if keys.shape[0] > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys, np.searchsorted(keys, a), np.searchsorted(keys, b)


class KeyedStore:
    """Multiset of stored tuples represented as per-key counts."""

    def __init__(self) -> None:
        self._dense = np.zeros(_MIN_DENSE, dtype=np.int64)
        self._overflow: dict[int, int] = {}
        # |R_i| and a generation counter live in a small int64 column that
        # a service table can re-bind into its struct of arrays
        # (repro.engine.columns): the C service pass adds served stores to
        # the dense table directly and needs both.
        self._si = memoryview(np.zeros(S_NINT, dtype=np.int64))

    _total = column_field("_si", S_TOTAL, "total stored tuples")

    def bind_columns(self, si: np.ndarray) -> None:
        """Move the total and generation into a caller-owned int64 column
        of ``S_NINT`` elements (current values are copied in)."""
        si[:] = self._si
        self._si = memoryview(si)

    def _moved(self) -> None:
        """Note that the dense table (or a window row) was reallocated."""
        self._si[S_GEN] += 1

    # -- dense-table plumbing -------------------------------------------- #

    def _in_dense(self, key: int) -> bool:
        return 0 <= key < DENSE_KEY_CAP

    def _ensure(self, max_key: int) -> None:
        """Grow the dense table to cover ``max_key`` (must be < cap)."""
        if max_key < self._dense.shape[0]:
            return
        grown = np.zeros(_grow_to(max_key + 1), dtype=np.int64)
        grown[: self._dense.shape[0]] = self._dense
        self._dense = grown
        self._moved()

    # -- introspection --------------------------------------------------- #

    @property
    def total(self) -> int:
        """``|R_i|`` — total stored tuples (Eq. 3)."""
        return self._si[S_TOTAL]

    @property
    def n_keys(self) -> int:
        """``K`` — number of distinct keys stored on this instance."""
        return int(np.count_nonzero(self._dense)) + len(self._overflow)

    def count(self, key: int) -> int:
        """``|R_ik|`` — stored tuples with the given key."""
        key = int(key)
        if self._in_dense(key):
            if key < self._dense.shape[0]:
                return int(self._dense[key])
            return 0
        return self._overflow.get(key, 0)

    def nonzero_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, counts)``: every key with a positive count, ascending.

        Two fresh int64 arrays that never alias the dense table, so a
        checkpoint image taken from them is unaffected by later mutation.
        The dense part costs one ``flatnonzero`` and one gather; only
        overflow keys (rare) touch Python.
        """
        # flatnonzero of the bool mask, not of the int64 table: about 4x
        # faster on a sparsely filled table.
        keys = np.flatnonzero(self._dense != 0).astype(np.int64, copy=False)
        counts = self._dense[keys]
        if self._overflow:
            over = self._overflow
            keys = np.concatenate(
                [keys, np.fromiter(over.keys(), np.int64, len(over))]
            )
            counts = np.concatenate(
                [counts, np.fromiter(over.values(), np.int64, len(over))]
            )
            order = np.argsort(keys)
            keys = keys[order]
            counts = counts[order]
        return keys, counts

    def counts_snapshot(self) -> dict[int, int]:
        """Per-key counts as a dict (validation and tests only)."""
        keys, counts = self.nonzero_counts()
        return dict(zip(keys.tolist(), counts.tolist()))

    def match_counts(
        self,
        keys: np.ndarray,
        out: np.ndarray | None = None,
        bounds: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Vectorised lookup of ``|R_ik|`` for an array of probe keys.

        ``out`` is an optional int64 buffer for the dense fast path (the
        join instance passes arena scratch so a steady-state lookup
        allocates nothing).  The fallback paths ignore it and return a
        fresh array — callers must use the returned array either way.

        ``bounds`` is an optional conservative ``(lo, hi)`` over ``keys``
        the caller already knows (the queue's push-time key bounds): when
        it proves every key addresses the dense table, the per-call min/max
        reductions are skipped entirely.  A too-wide bound is never wrong —
        the reductions run as before.
        """
        n = keys.shape[0]
        dense = self._dense
        size = dense.shape[0]
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        # Fast path: every key addresses the dense table directly.  The
        # bounds were just verified, so take's mode="clip" never clips —
        # it only skips the buffered bounds-checking copy.
        if (
            bounds is not None and bounds[0] >= 0 and bounds[1] < size
        ) or (int(keys.min()) >= 0 and int(keys.max()) < size):
            if out is not None:
                # ndarray.take, not np.take: the module wrapper's dispatch
                # costs as much as the gather itself at chunk sizes.
                dense.take(keys, out=out, mode="clip")
                return out
            return dense[keys]
        out = np.zeros(n, dtype=np.int64)
        ok = (keys >= 0) & (keys < size)
        out[ok] = dense[keys[ok]]
        if self._overflow:
            table = self._overflow
            for i in np.nonzero(~ok)[0].tolist():
                out[i] = table.get(int(keys[i]), 0)
        return out

    # -- mutation ---------------------------------------------------------- #

    def add_batch(self, keys: np.ndarray) -> None:
        """Insert one tuple per entry of ``keys``."""
        n = int(keys.shape[0])
        if n == 0:
            return
        mn = int(keys.min())
        mx = int(keys.max())
        if mn >= 0 and mx < DENSE_KEY_CAP:
            self._ensure(mx)
            np.add.at(self._dense, keys, 1)
        else:
            ok = (keys >= 0) & (keys < DENSE_KEY_CAP)
            dense_keys = keys[ok]
            if dense_keys.shape[0]:
                self._ensure(int(dense_keys.max()))
                np.add.at(self._dense, dense_keys, 1)
            table = self._overflow
            for k in keys[~ok].tolist():
                table[k] = table.get(k, 0) + 1
        self._total += n

    def add_weighted(
        self,
        keys: np.ndarray,
        weights: np.ndarray,
        total: int,
        bounds: tuple[int, int] | None = None,
    ) -> None:
        """Hot-path masked insert: add ``weights[i]`` tuples of ``keys[i]``.

        ``weights`` is an int64 0/1 array aligned with ``keys`` (the
        chunk's store mask) and ``total`` its precomputed sum.  Scattering
        the weights over the whole chunk — probes contribute +0 — lets the
        join instance skip materialising ``keys[mask]``, which is what
        keeps the mixed-chunk store path allocation-free.  Exactly
        equivalent to ``add_batch(keys[mask])``: integer adds of zero are
        no-ops.

        ``bounds`` plays the same role as in :meth:`match_counts`: a
        caller-known conservative ``(lo, hi)`` over ``keys`` that lets the
        dense-eligibility check skip its min/max reductions.  The dense
        table is grown to cover the (possibly wider) hint — growth timing
        is the only thing the hint can change, never a stored count.
        """
        if total == 0 or keys.shape[0] == 0:
            return
        if bounds is not None and bounds[0] >= 0 and bounds[1] < DENSE_KEY_CAP:
            mn, mx = bounds
        else:
            mn = int(keys.min())
            mx = int(keys.max())
        if mn >= 0 and mx < DENSE_KEY_CAP:
            self._ensure(mx)
            np.add.at(self._dense, keys, weights)
            self._total += total
        else:
            # Out-of-dense-range keys present (rare): take the general path.
            self.add_batch(keys[weights.astype(bool)])

    def add(self, key: int, count: int = 1) -> None:
        if count < 0:
            raise StorageError(f"cannot add a negative count ({count})")
        key = int(key)
        if self._in_dense(key):
            self._ensure(key)
            self._dense[key] += count
        elif count:
            self._overflow[key] = self._overflow.get(key, 0) + count
        self._total += count

    def remove_keys(self, keys: set[int] | frozenset[int]) -> dict[int, int]:
        """Remove every tuple of the given keys; return the removed counts.

        This is the store side of migration (Algorithm 2 lines 3-8).
        """
        removed: dict[int, int] = {}
        size = self._dense.shape[0]
        for k in keys:
            k = int(k)
            if 0 <= k < size:
                c = int(self._dense[k])
                if c:
                    removed[k] = c
                    self._dense[k] = 0
                    self._total -= c
            else:
                c = self._overflow.pop(k, 0)
                if c:
                    removed[k] = c
                    self._total -= c
        if self._total < 0:
            raise StorageError("store total went negative after remove_keys")
        return removed

    def merge_counts(self, counts: dict[int, int]) -> None:
        """Absorb migrated tuples (target side of Algorithm 2)."""
        if counts:
            n = len(counts)
            self.merge_arrays(
                np.fromiter(counts.keys(), np.int64, n),
                np.fromiter(counts.values(), np.int64, n),
            )

    def merge_arrays(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Add ``counts[i]`` tuples of ``keys[i]`` for every ``i``.

        Exactly a per-key :meth:`add` loop, including dense-table growth
        (a zero count still grows the table to cover its key), but one
        ``np.add.at`` for the dense part.  Rejects the whole batch before
        mutating anything if any count is negative.
        """
        if keys.shape[0] == 0:
            return
        if int(counts.min()) < 0:
            bad = int(keys[np.flatnonzero(counts < 0)[0]])
            raise StorageError(f"negative migrated count for key {bad}")
        self._total += int(counts.sum())
        dense = (keys >= 0) & (keys < DENSE_KEY_CAP)
        if not dense.all():
            table = self._overflow
            for k, c in zip(keys[~dense].tolist(), counts[~dense].tolist()):
                if c:
                    table[k] = table.get(k, 0) + c
            keys, counts = keys[dense], counts[dense]
        if keys.shape[0]:
            self._ensure(int(keys.max()))
            np.add.at(self._dense, keys, counts)

    def evict_counts(self, counts: dict[int, int]) -> None:
        """Subtract per-key counts (window expiry, paper section III-E)."""
        size = self._dense.shape[0]
        for k, c in counts.items():
            k = int(k)
            have = int(self._dense[k]) if 0 <= k < size else self._overflow.get(k, 0)
            if c > have:
                raise StorageError(
                    f"evicting {c} tuples of key {k} but only {have} stored"
                )
            left = have - c
            if 0 <= k < size:
                self._dense[k] = left
            elif left:
                self._overflow[k] = left
            else:
                self._overflow.pop(k, None)
            self._total -= c

    def evict_array(self, counts: np.ndarray, overflow: dict[int, int] | None = None) -> None:
        """Vectorised window expiry: subtract an aligned dense count row.

        ``counts`` is indexed by key id like the internal table (it may be
        shorter); ``overflow`` carries the expiring counts of any
        out-of-dense-range keys.  Raises :class:`StorageError` if the
        eviction would drive any count negative — an expiring sub-window
        can never hold more tuples of a key than the store does.
        """
        m = counts.shape[0]
        if m:
            if m > self._dense.shape[0]:
                self._ensure(m - 1)
            region = self._dense[:m]
            region -= counts
            if int(region.min()) < 0:
                region += counts  # restore before failing
                bad = int(np.nonzero(counts > self._dense[:m])[0][0])
                raise StorageError(
                    f"evicting {int(counts[bad])} tuples of key {bad} but "
                    f"only {int(self._dense[bad])} stored"
                )
            self._total -= int(counts.sum())
        if overflow:
            self.evict_counts(overflow)

    def clear(self) -> None:
        self._dense[:] = 0
        self._overflow.clear()
        self._total = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyedStore(total={self._total}, keys={self.n_keys})"

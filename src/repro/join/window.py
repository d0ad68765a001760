"""Window-based join support (paper section III-E).

The paper adapts FastJoin to window semantics by

- giving the *joining component* per-instance eviction of expired tuples
  (``|R|`` decreases when a sub-window expires), and
- giving the *monitor* a fixed-size vector of sub-window counts per
  instance, whose head is popped when the early sub-window expires.

:class:`WindowedStore` wraps a :class:`~repro.join.storage.KeyedStore` with
a ring of sub-windows.  The ring is a 2-D ``(n_subwindows, key)`` count
matrix — one dense row per sub-window — so recording a batch of inserts is
one ``np.add.at`` into the current row and expiring a sub-window is one
vectorised row subtraction (:meth:`KeyedStore.evict_array`), with no
per-key Python on either path.  Out-of-dense-range keys (negative or
astronomically large) ride in per-row overflow dicts, mirroring the keyed
store's fallback.  :class:`SubWindowVector` is the monitor-side structure:
it tracks only the scalar ``|R|`` per sub-window (the monitor never needs
per-key detail until it requests a migration).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import ConfigError
from .storage import DENSE_KEY_CAP, KeyedStore

__all__ = ["WindowedStore", "SubWindowVector"]

_MIN_RING_WIDTH = 1024


class WindowedStore:
    """A keyed store whose contents expire after ``n_subwindows`` rotations.

    Parameters
    ----------
    n_subwindows:
        Number of sub-windows forming the join window.  Rotating
        ``n_subwindows`` times fully replaces the window's contents.

    Notes
    -----
    Migrated-in tuples are credited to the *current* sub-window: their true
    insertion times are unknown to the receiving instance, and crediting
    them as fresh errs on the side of keeping tuples (no false negatives in
    join results; a tuple may survive slightly longer than its nominal
    window, which the paper's design shares since it also moves tuples
    without rewriting their timestamps).
    """

    def __init__(self, n_subwindows: int) -> None:
        if n_subwindows < 1:
            raise ConfigError(f"n_subwindows must be >= 1, got {n_subwindows}")
        self._store = KeyedStore()
        self._n_subwindows = int(n_subwindows)
        # Row i of the ring holds the per-key insert counts of one
        # sub-window; _head indexes the oldest row, the newest (current)
        # row is (_head - 1) % n.  Rotation just advances _head — no copy.
        self._ring = np.zeros((self._n_subwindows, _MIN_RING_WIDTH), dtype=np.int64)
        self._overflow: list[dict[int, int]] = [
            {} for _ in range(self._n_subwindows)
        ]
        self._head = 0

    # -- delegation to the underlying store --------------------------------- #

    @property
    def total(self) -> int:
        return self._store.total

    @property
    def n_keys(self) -> int:
        return self._store.n_keys

    @property
    def n_subwindows(self) -> int:
        return self._n_subwindows

    def count(self, key: int) -> int:
        return self._store.count(key)

    def nonzero_counts(self) -> tuple[np.ndarray, np.ndarray]:
        return self._store.nonzero_counts()

    def counts_snapshot(self) -> dict[int, int]:
        return self._store.counts_snapshot()

    def match_counts(
        self,
        keys: np.ndarray,
        out: np.ndarray | None = None,
        bounds: tuple[int, int] | None = None,
    ) -> np.ndarray:
        return self._store.match_counts(keys, out=out, bounds=bounds)

    # -- window-aware mutation ---------------------------------------------- #

    @property
    def _current_row(self) -> int:
        return (self._head - 1) % self._n_subwindows

    def _widen(self, max_key: int) -> None:
        """Grow every ring row to cover ``max_key`` (must be < dense cap)."""
        width = self._ring.shape[1]
        if max_key < width:
            return
        new_width = _MIN_RING_WIDTH
        while new_width <= max_key:
            new_width <<= 1
        grown = np.zeros((self._n_subwindows, new_width), dtype=np.int64)
        grown[:, :width] = self._ring
        self._ring = grown
        self._store._moved()

    def _credit_current(self, keys: np.ndarray) -> None:
        """Record a batch of inserts in the current sub-window's row."""
        row = self._ring[self._current_row]
        mn = int(keys.min())
        mx = int(keys.max())
        if mn >= 0 and mx < DENSE_KEY_CAP:
            if mx >= row.shape[0]:
                self._widen(mx)
                row = self._ring[self._current_row]
            np.add.at(row, keys, 1)
            return
        ok = (keys >= 0) & (keys < DENSE_KEY_CAP)
        dense_keys = keys[ok]
        if dense_keys.shape[0]:
            mx = int(dense_keys.max())
            if mx >= row.shape[0]:
                self._widen(mx)
                row = self._ring[self._current_row]
            np.add.at(row, dense_keys, 1)
        over = self._overflow[self._current_row]
        for k in keys[~ok].tolist():
            over[k] = over.get(k, 0) + 1

    def add_batch(self, keys: np.ndarray) -> None:
        if keys.shape[0] == 0:
            return
        self._store.add_batch(keys)
        self._credit_current(keys)

    def add_weighted(
        self,
        keys: np.ndarray,
        weights: np.ndarray,
        total: int,
        bounds: tuple[int, int] | None = None,
    ) -> None:
        """Masked insert mirroring :meth:`KeyedStore.add_weighted`.

        The current sub-window's row receives the same 0/1 weight scatter
        as the underlying store, so expiry accounting stays exact.
        ``bounds`` is the caller's conservative key range, as in
        :meth:`KeyedStore.add_weighted`; it can widen the ring rows early
        but never changes a stored count.
        """
        if total == 0 or keys.shape[0] == 0:
            return
        if bounds is not None and bounds[0] >= 0 and bounds[1] < DENSE_KEY_CAP:
            mn, mx = bounds
        else:
            mn = int(keys.min())
            mx = int(keys.max())
        if mn >= 0 and mx < DENSE_KEY_CAP:
            self._store.add_weighted(keys, weights, total, bounds=(mn, mx))
            row = self._ring[self._current_row]
            if mx >= row.shape[0]:
                self._widen(mx)
                row = self._ring[self._current_row]
            np.add.at(row, keys, weights)
        else:
            self.add_batch(keys[weights.astype(bool)])

    def add(self, key: int, count: int = 1) -> None:
        self._store.add(key, count)
        key = int(key)
        if 0 <= key < DENSE_KEY_CAP:
            self._widen(key)
            self._ring[self._current_row, key] += count
        elif count:
            over = self._overflow[self._current_row]
            over[key] = over.get(key, 0) + count

    def merge_counts(self, counts: dict[int, int]) -> None:
        self._store.merge_counts(counts)
        for k, c in counts.items():
            k = int(k)
            if 0 <= k < DENSE_KEY_CAP:
                self._widen(k)
                self._ring[self._current_row, k] += c
            elif c:
                over = self._overflow[self._current_row]
                over[k] = over.get(k, 0) + c

    def remove_keys(self, keys: set[int] | frozenset[int]) -> dict[int, int]:
        removed = self._store.remove_keys(keys)
        # Scrub the migrated keys from every sub-window so their later
        # expiry does not double-subtract.
        if removed:
            width = self._ring.shape[1]
            dense = [k for k in removed if 0 <= k < width]
            if dense:
                self._ring[:, np.asarray(dense, dtype=np.int64)] = 0
            for over in self._overflow:
                for k in removed:
                    over.pop(int(k), None)
        return removed

    def rotate(self) -> int:
        """Expire the oldest sub-window; return how many tuples it held.

        The head of the vector is "popped out" exactly as section III-E
        describes, and the per-instance ``|R|`` decreases by its size.
        """
        row = self._ring[self._head]
        over = self._overflow[self._head]
        n = int(row.sum()) + sum(over.values())
        if n:
            self._store.evict_array(row, over if over else None)
        row[:] = 0
        if over:
            self._overflow[self._head] = {}
        self._head = (self._head + 1) % self._n_subwindows
        self._store._moved()  # the current row moved
        return n

    def subwindow_sizes(self) -> list[int]:
        """Sizes of the sub-windows, oldest first (monitor's vector view)."""
        order = [
            (self._head + i) % self._n_subwindows
            for i in range(self._n_subwindows)
        ]
        row_sums = self._ring.sum(axis=1)
        return [
            int(row_sums[i]) + sum(self._overflow[i].values()) for i in order
        ]


class SubWindowVector:
    """Monitor-side fixed-size vector of per-sub-window ``|R|`` scalars.

    The monitoring component records the historical accumulation of the
    storing stream per instance; under window semantics it keeps one scalar
    per sub-window and pops the head on expiry (paper section III-E).
    """

    def __init__(self, n_subwindows: int) -> None:
        if n_subwindows < 1:
            raise ConfigError(f"n_subwindows must be >= 1, got {n_subwindows}")
        self._sizes: deque[int] = deque([0] * n_subwindows, maxlen=n_subwindows)

    @property
    def total(self) -> int:
        """The instance's ``|R|`` as currently known to the monitor."""
        return sum(self._sizes)

    def record_inserts(self, n: int) -> None:
        """Credit ``n`` newly stored tuples to the current sub-window."""
        if n < 0:
            raise ValueError("insert count must be non-negative")
        self._sizes[-1] += n

    def rotate(self) -> int:
        """Pop the early sub-window; returns its size."""
        head = self._sizes[0]
        self._sizes.append(0)
        return head

    def as_list(self) -> list[int]:
        return list(self._sizes)

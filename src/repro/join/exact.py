"""Exact-semantics join engine — the completeness validation harness.

The performance simulator (:mod:`repro.join.instance`) tracks per-key
*counts* because no measured quantity needs tuple identity.  Completeness —
the paper's third requirement, "each pair of tuples from two streams that
are matched for join must be joined exactly once" — is about identity, so
this module re-implements the join-biclique at tuple granularity with the
same ordering rules as the performance engine:

- per-instance FIFO queues whose entries carry a visible-time, with
  head-of-line blocking (a not-yet-visible tuple blocks everything behind
  it, modelling an ordered network channel — Storm's per-task semantics);
- stores and probes of one input tuple dispatched atomically;
- migration that extracts stored tuples *and* queued tuples of the
  selected keys in FIFO order, makes them visible at the target only when
  the transfer completes, and updates the routing table at execute time
  (section III-D's ordering, which is exactly what makes the double-join /
  lost-join races impossible).

Tests fuzz this engine with random workloads and adversarial migration
timing and assert the output pair multiset is exactly
``{(r, s) : r.key == s.key}`` with multiplicity one.

The bookkeeping around the tuple-level queues is columnar: a block of
tuples is routed with one hash call, every emitted pair is appended to two
flat uid logs, and :func:`exactly_once` proves the multiset identity with
array passes (see its docstring for why three checks suffice).
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import repeat
from typing import NamedTuple

import numpy as np

from ..core.routing import RoutingTable
from ..engine.rng import hash_to_instance
from ..errors import MigrationError
from .dispatcher import opposite

__all__ = [
    "ExactTuple",
    "ExactInstance",
    "ExactBiclique",
    "exactly_once",
    "join_product",
]


class ExactTuple(NamedTuple):
    """A queued operation in the exact engine."""

    stream: str      # which stream the tuple belongs to ("R"/"S")
    key: int
    uid: int
    op: str          # "store" | "probe"
    visible_at: float


class ExactInstance:
    """Tuple-level join instance: FIFO queue + per-key uid lists."""

    def __init__(self, instance_id: int, side: str) -> None:
        self.instance_id = instance_id
        self.side = side
        self.queue: deque[ExactTuple] = deque()
        self.store: dict[int, list[int]] = defaultdict(list)
        self.paused_until = 0.0

    def stored_total(self) -> int:
        return sum(len(v) for v in self.store.values())

    def step(self, now: float, r_log: list[int], s_log: list[int]) -> int:
        """Serve every visible tuple at the queue head; return count served.

        Each joined pair ``(r_uid, s_uid)`` is appended to ``r_log`` and
        ``s_log`` at the same position.
        """
        if now < self.paused_until:
            return 0
        # R-side instances store R tuples and are probed by S tuples.
        stored_log, probe_log = (r_log, s_log) if self.side == "R" else (s_log, r_log)
        queue = self.queue
        store = self.store
        served = 0
        while queue and queue[0].visible_at <= now:
            t = queue.popleft()
            if t.op == "store":
                store[t.key].append(t.uid)
            else:
                matches = store.get(t.key)
                if matches:
                    stored_log.extend(matches)
                    probe_log.extend(repeat(t.uid, len(matches)))
            served += 1
        return served

    def extract_for_migration(
        self, keys: set[int]
    ) -> tuple[dict[int, list[int]], list[ExactTuple]]:
        """Remove stored uid-lists and queued tuples for ``keys`` (FIFO
        order preserved among the extracted queued tuples)."""
        stored = {k: self.store.pop(k) for k in keys if k in self.store}
        kept: deque[ExactTuple] = deque()
        moved: list[ExactTuple] = []
        for t in self.queue:
            (moved if t.key in keys else kept).append(t)
        self.queue = kept
        return stored, moved

    def accept_migration(
        self,
        stored: dict[int, list[int]],
        queued: list[ExactTuple],
        visible_at: float,
    ) -> None:
        for k, uids in stored.items():
            self.store[k].extend(uids)
        self.queue.extend(
            t._replace(visible_at=max(t.visible_at, visible_at)) for t in queued
        )


class ExactBiclique:
    """A tuple-level join-biclique with hash partitioning and migration.

    Parameters
    ----------
    n_instances:
        Instances per side.
    dispatch_delay:
        Seconds between dispatch and queue visibility.
    """

    def __init__(self, n_instances: int, dispatch_delay: float = 0.0) -> None:
        self.n = n_instances
        self.delay = dispatch_delay
        self.groups: dict[str, list[ExactInstance]] = {
            side: [ExactInstance(i, side) for i in range(n_instances)]
            for side in ("R", "S")
        }
        self.routing = {side: RoutingTable(n_instances) for side in ("R", "S")}
        # joined pairs: (pair_r[i], pair_s[i]) is the i-th emitted pair
        self.pair_r: list[int] = []
        self.pair_s: list[int] = []
        # key of every ingested tuple, indexed by its uid
        self.uid_keys: dict[str, list[int]] = {"R": [], "S": []}

    @property
    def n_pairs(self) -> int:
        """Joined pairs emitted so far."""
        return len(self.pair_r)

    # -- data path ------------------------------------------------------- #

    def _targets(self, side: str, keys: np.ndarray) -> np.ndarray:
        """Instance of each key on ``side``: routing override, else hash."""
        return self.routing[side].apply(keys, hash_to_instance(keys, self.n))

    def _route(self, side: str, key: int) -> int:
        return int(self._targets(side, np.array([key], dtype=np.int64))[0])

    def ingest_many(
        self,
        stream: str,
        keys: np.ndarray,
        now: float,
        extra_delay: float = 0.0,
    ) -> range:
        """Dispatch a block of ``stream`` tuples in order; returns their uids.

        Equivalent to one :meth:`ingest` per key: each tuple's store and
        probe reach the routed instances' queues in block order.
        ``extra_delay`` mirrors a fault-injected batch delay: the tuples
        are emitted at ``now`` but become visible ``extra_delay`` seconds
        later than the normal dispatch delay allows (the performance
        engine's ``Dispatcher.dispatch(extra_delay=...)``).
        """
        keys = np.asarray(keys, dtype=np.int64)
        key_list = keys.tolist()
        log = self.uid_keys[stream]
        uids = range(len(log), len(log) + len(key_list))
        log.extend(key_list)
        visible = now + self.delay + extra_delay
        for side, op in ((stream, "store"), (opposite(stream), "probe")):
            queues = [inst.queue for inst in self.groups[side]]
            for dest, t in zip(
                self._targets(side, keys).tolist(),
                map(ExactTuple, repeat(stream), key_list, uids, repeat(op),
                    repeat(visible)),
            ):
                queues[dest].append(t)
        return uids

    def ingest(
        self, stream: str, key: int, now: float, extra_delay: float = 0.0
    ) -> int:
        """Dispatch one tuple of ``stream``; returns its uid."""
        return self.ingest_many(
            stream, np.array([key], dtype=np.int64), now, extra_delay
        )[0]

    def step(self, now: float) -> int:
        served = 0
        for side in ("R", "S"):
            for inst in self.groups[side]:
                served += inst.step(now, self.pair_r, self.pair_s)
        return served

    def drain(self, now: float, max_rounds: int = 10_000) -> None:
        """Step until all queues are empty (advancing past visibility and
        pause times as needed)."""
        t = now
        for _ in range(max_rounds):
            if all(
                not inst.queue and inst.paused_until <= t
                for side in ("R", "S")
                for inst in self.groups[side]
            ):
                return
            self.step(t)
            # jump past the earliest blocking time
            pending = [
                inst.queue[0].visible_at
                for side in ("R", "S")
                for inst in self.groups[side]
                if inst.queue
            ] + [
                inst.paused_until
                for side in ("R", "S")
                for inst in self.groups[side]
                if inst.paused_until > t
            ]
            if pending:
                t = max(t, min(pending))
        raise MigrationError("drain did not converge")

    # -- migration --------------------------------------------------------- #

    def ensure_instances(self, n: int) -> None:
        """Grow both sides to at least ``n`` instances (elastic replay).

        ``self.n`` — the hash-partitioning base — stays fixed, exactly
        like the performance engine's partitioners: keys reach the
        above-base instances only through routing overrides installed by
        replayed ``reason="scaleout"`` migration events.
        """
        for side in ("R", "S"):
            group = self.groups[side]
            while len(group) < n:
                group.append(ExactInstance(len(group), side))
            self.routing[side].grow(len(group))

    def owned_keys(self, side: str, source: int, keys) -> set[int]:
        """The subset of ``keys`` that ``source`` currently owns on ``side``.

        A key can only be migrated by the instance that owns it: the real
        monitor builds the key set from the source's own statistics, so
        foreign keys can never appear.  Migration enforces the same rule
        through this filter.
        """
        arr = np.fromiter(keys, dtype=np.int64, count=len(keys))
        return set(arr[self._targets(side, arr) == source].tolist())

    def migrate(
        self,
        side: str,
        source: int,
        target: int,
        keys: set[int],
        now: float,
        duration: float = 0.0,
    ) -> None:
        """Move ``keys`` from ``source`` to ``target`` on ``side`` using
        the same ordering rules as :class:`repro.core.migration`.

        Targets beyond the current group (a replayed elastic scale-out)
        grow the biclique automatically; retired instances are never
        reaped — a drained instance simply stays empty and unreachable,
        which is observationally identical to retirement.
        """
        self.ensure_instances(max(source, target) + 1)
        if source == target:
            raise MigrationError("source and target must differ")
        keys = self.owned_keys(side, source, keys)
        if not keys:
            return
        src = self.groups[side][source]
        dst = self.groups[side][target]
        stored, queued = src.extract_for_migration(keys)
        src.paused_until = max(src.paused_until, now + duration)
        dst.accept_migration(stored, queued, visible_at=now + duration)
        self.routing[side].install(sorted(keys), target)

    # -- verification -------------------------------------------------------- #

    def check_exactly_once(self) -> tuple[bool, str]:
        """Compare observed against expected; returns (ok, message)."""
        return exactly_once(
            self.uid_keys["R"], self.uid_keys["S"], self.pair_r, self.pair_s
        )


# ------------------------------------------------------------------------ #
# the exactly-once verdict
# ------------------------------------------------------------------------ #


def join_product(keys_r: np.ndarray, keys_s: np.ndarray) -> int:
    """``sum_k |R_k| * |S_k|``: the size of the equi-join of two key arrays."""
    uniq_r, count_r = np.unique(keys_r, return_counts=True)
    uniq_s, count_s = np.unique(keys_s, return_counts=True)
    _, ir, is_ = np.intersect1d(
        uniq_r, uniq_s, assume_unique=True, return_indices=True
    )
    return int(np.dot(count_r[ir], count_s[is_]))


def _pair_list(r: np.ndarray, s: np.ndarray) -> list[tuple[int, int]]:
    return list(zip(r.tolist(), s.tolist()))


def exactly_once(keys_r, keys_s, pair_r, pair_s) -> tuple[bool, str]:
    """Is the logged pair multiset exactly ``{(r, s) : key_R[r] == key_S[s]}``?

    ``keys_r[u]`` / ``keys_s[u]`` is the key of the R / S tuple with uid
    ``u``; ``(pair_r[i], pair_s[i])`` is the i-th joined pair.  Three array
    checks decide the verdict:

    1. every pair matches: both uids are in range and ``key_R[r] ==
       key_S[s]`` — so the observed pairs are a sub-multiset of the
       expected set ``E``;
    2. no pair code ``r * |S| + s`` repeats — so they form a *set*;
    3. the pair count equals ``|E| = sum_k |R_k| * |S_k|``.

    A subset of ``E`` with ``|E|`` elements is ``E`` itself, so the three
    together are exactly "every matching pair joined exactly once".  On
    failure the message names the first five missing, spurious or
    duplicate pairs (in that priority), in the order a per-pair scan
    would list them.
    """
    key_r = np.asarray(keys_r, dtype=np.int64)
    key_s = np.asarray(keys_s, dtype=np.int64)
    r = np.asarray(pair_r, dtype=np.int64)
    s = np.asarray(pair_s, dtype=np.int64)
    n_r, n_s = key_r.shape[0], key_s.shape[0]
    matched = (r >= 0) & (r < n_r) & (s >= 0) & (s < n_s)
    matched[matched] = key_r[r[matched]] == key_s[s[matched]]
    codes = np.sort(r[matched] * n_s + s[matched])
    distinct = not np.any(codes[1:] == codes[:-1])
    if matched.all() and distinct and r.shape[0] == join_product(key_r, key_s):
        return True, "exactly-once"

    # Expected pairs in scan order: by S uid, then by R uid within a key.
    order_r = np.argsort(key_r, kind="stable")
    sorted_r = key_r[order_r]
    lo = np.searchsorted(sorted_r, key_s, side="left")
    lens = np.searchsorted(sorted_r, key_s, side="right") - lo
    total = int(lens.sum())
    offsets = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
    exp_r = order_r[np.repeat(lo, lens) + offsets]
    exp_s = np.repeat(np.arange(n_s, dtype=np.int64), lens)
    missing = ~np.isin(exp_r * n_s + exp_s, codes)
    n_missing = int(missing.sum())
    if n_missing:
        head = _pair_list(exp_r[missing][:5], exp_s[missing][:5])
        return False, f"missing joins: {head} (+{max(n_missing - 5, 0)})"

    # Distinct observed pairs in first-occurrence order.
    _, first, counts = np.unique(
        np.stack([r, s], axis=1), axis=0, return_index=True, return_counts=True
    )
    by_first = np.argsort(first)
    first, counts = first[by_first], counts[by_first]
    spurious = first[~matched[first]][:5]
    if spurious.shape[0]:
        return False, f"spurious joins: {_pair_list(r[spurious], s[spurious])}"
    dupes = first[counts > 1][:5]
    return False, f"duplicate joins: {_pair_list(r[dupes], s[dupes])}"

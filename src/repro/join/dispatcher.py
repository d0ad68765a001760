"""The dispatching component (paper section III-A).

The dispatcher receives pre-processed tuples from the shuffler, partitions
them with the configured strategy and sends each tuple to join instances:

- a **store** operation to one instance of the tuple's own side (that side
  of the biclique stores the tuple), and
- **probe** operations to the opposite side's instance(s) that may hold
  matching tuples (one instance under hash partitioning, a subgroup under
  ContRand, everyone under random/broadcast).

After migrations, a :class:`~repro.core.routing.RoutingTable` per side
redirects migrated keys; the dispatcher "checks the routing table to
dispatch the tuples to the right join instances".

Routing is batched end to end.  For a content-based side the dispatcher
keeps a cached dense ``key -> instance`` route array that already folds in
the routing-table overrides; resolving a tick's batch is then one gather
instead of re-hashing every key on every call.  The cache is invalidated
only when the routing table's ``version`` changes — i.e. when a migration
actually installs or removes overrides — or when a new key id exceeds the
cached range.

Delivery has two paths with identical results (DESIGN §9).  When both
sides are content-based and the runtime has bound its service table
(:meth:`Dispatcher.bind_table`), one C call per batch
(``dispatch_batch`` in :mod:`repro.engine.ckernels`) gathers both sides'
routes, counts each destination's tuples and key bounds, and appends the
keys, in batch order, straight at the tail of each destination's ring,
moving the queue cursors the table already holds.  A destination whose
ring is full or was reallocated refuses the whole call; the queue grows
by :meth:`TupleQueue.push_block`'s rule, the table refreshes its
pointers, and the call is retried.  Everything else — no C kernels,
broadcast or subgroup partitioners, keys outside the route cache, a
dispatcher with no table — is the numpy reference: a stable counting
scatter (:func:`counting_blocks`) handing each join instance a contiguous
key block with scalar visible-time/op metadata, every temporary in a
dispatcher-owned scratch arena.

Dispatch latency models the network: tuples become visible at the target
queue ``delay`` seconds after emission, with the delay growing with group
size (more instances → more dispatch/gather communication, the effect the
paper uses to explain rising latency in Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.routing import RoutingTable
from ..engine import ckernels as _ck
from ..engine.arena import Arena
from ..engine.columns import DS_CNT, DS_FLAG, DS_NROW
from ..engine.rng import hash_to_instance
from ..engine.tuples import OP_PROBE, OP_STORE
from ..errors import ConfigError, SimulationError
from .instance import JoinInstance
from .partitioners import Partitioner

__all__ = [
    "DispatchDelay",
    "DispatchStats",
    "Dispatcher",
    "counting_blocks",
    "opposite",
]

#: route arrays cover keys in [0, _ROUTE_CACHE_CAP); a batch containing a
#: negative or larger key falls back to uncached per-batch routing.
_ROUTE_CACHE_CAP = 1 << 22

_MIN_ROUTES = 1024


def counting_blocks(dest, keys, k, arena):
    """Group ``keys`` by destination; a stable scatter without argsort.

    Yields ``(d, block)`` pairs in ascending destination order, where
    ``block`` is the contiguous sub-array of ``keys`` routed to instance
    ``d`` *in original batch order* — exactly the segments
    ``np.argsort(dest, kind="stable")`` would produce, with every
    temporary living in the caller's arena.

    One counting pass (``np.add.at`` into arena scratch — the bincount
    over a destination domain that is just the group size, k <= 32)
    sizes every block; the block offsets are the counts' exclusive
    cumsum, accumulated as the running ``start``.  The permutation
    itself rides an *in-place* sort of the composite ``dest << 32 | i``:
    the index in the low bits makes every composite unique, so the
    sorted order equals the stable-by-destination order bit-for-bit and
    no stable (allocating) argsort is needed.  This is the numpy
    reference of the dispatch; the C dispatch places each key at its
    destination ring's tail in one O(n + k) pass instead (DESIGN §9).

    Blocks alias arena scratch: they are valid until the next call with
    the same arena, and callers must copy anything they retain.

    Fast path: a batch whose tuples all share one destination yields the
    original ``keys`` array untouched (zero copies).
    """
    n = dest.shape[0]
    if n == 0:
        return
    counts = arena.array("scatter_counts", k, np.int64)
    counts.fill(0)
    np.add.at(counts, dest, 1)
    first = int(dest[0])
    if counts[first] == n:
        yield first, keys
        return
    packed = arena.array("scatter_packed", n, np.int64)
    idx = arena.array("scatter_idx", n, np.int64)
    out = arena.array("scatter_out", n, np.int64)
    np.multiply(dest, 1 << 32, out=packed)
    np.add(packed, arena.iota(n), out=packed)
    packed.sort()
    np.bitwise_and(packed, 0xFFFFFFFF, out=idx)
    np.take(keys, idx, out=out, mode="clip")
    start = 0
    for d, c in enumerate(counts.tolist()):
        if c:
            yield d, out[start : start + c]
            start += c


def opposite(side: str) -> str:
    """The other side of the biclique."""
    if side == "R":
        return "S"
    if side == "S":
        return "R"
    raise ConfigError(f"side must be 'R' or 'S', got {side!r}")


@dataclass
class DispatchDelay:
    """Deterministic network-delay model.

    ``delay(n) = base + per_instance * n`` seconds — a dispatch into a
    larger group pays more coordination/serialisation overhead.
    """

    base: float = 0.002
    per_instance: float = 0.0002

    def delay(self, group_size: int) -> float:
        if group_size < 1:
            raise ConfigError("group_size must be >= 1")
        return self.base + self.per_instance * group_size


@dataclass
class DispatchStats:
    """Message accounting (probe amplification shows up here).

    The per-side breakdowns record how many operations were delivered *to*
    each biclique side's group; the completeness-conservation invariant
    (tuples stored + queued == tuples dispatched, see
    :mod:`repro.validate.invariants`) balances against these.
    """

    stores_sent: int = 0
    probes_sent: int = 0
    stores_to_side: dict = field(default_factory=lambda: {"R": 0, "S": 0})
    probes_to_side: dict = field(default_factory=lambda: {"R": 0, "S": 0})
    #: total delivery delay (seconds, summed over delivered operations)
    #: charged per emitting stream — the dispatch/network share of the
    #: queue-wait latency component (DESIGN §5).
    delay_charged: dict = field(default_factory=lambda: {"R": 0.0, "S": 0.0})

    @property
    def messages(self) -> int:
        return self.stores_sent + self.probes_sent


class Dispatcher:
    """Routes keyed batches into the two join-instance groups."""

    def __init__(
        self,
        groups: dict[str, list[JoinInstance]],
        partitioners: dict[str, Partitioner],
        routing: dict[str, RoutingTable],
        delay: DispatchDelay | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        for side in ("R", "S"):
            if side not in groups or side not in partitioners or side not in routing:
                raise ConfigError(f"missing side {side!r} in dispatcher wiring")
            if partitioners[side].n_instances != len(groups[side]):
                raise ConfigError(
                    f"partitioner for side {side} targets "
                    f"{partitioners[side].n_instances} instances but group has "
                    f"{len(groups[side])}"
                )
        self.groups = groups
        self.partitioners = partitioners
        self.routing = routing
        self.delay = delay if delay is not None else DispatchDelay()
        self.rng = rng if rng is not None else np.random.Generator(np.random.PCG64(0))
        self.stats = DispatchStats()
        # Per-side network delay is a pure function of the (fixed) group
        # size; pre-resolve it instead of recomputing every dispatch.
        self._delay_of = {
            side: self.delay.delay(len(groups[side])) for side in ("R", "S")
        }
        # Cached dense key -> instance routes per content-based side, with
        # routing-table overrides folded in.  _route_version records the
        # table version each cache was built against; a migration bumps the
        # version, which is the (pre-existing) invalidation hook.
        self._routes: dict[str, np.ndarray | None] = {"R": None, "S": None}
        self._route_version: dict[str, int] = {"R": -1, "S": -1}
        # Scratch buffers for route lookups and the counting scatter.  The
        # dispatcher is the sole owner; every view handed out (routed dest
        # arrays, scatter blocks) is consumed before the next dispatch
        # reuses the tags (enqueue_block copies into the target ring).
        self._arena = Arena()
        # Optional observability bundle (repro.obs); one test per dispatch.
        self.obs = None
        # The service table the C dispatch writes into (bind_table).
        self._table = None

    def bind_table(self, table) -> None:
        """Deliver content-based batches straight into the rings of
        ``table`` (a :class:`~repro.join.service.ServiceTable` over both
        groups) with the C dispatch; ``None`` or a table that does not
        hold every instance of both groups leaves the numpy reference."""
        self._table = None
        if table is None or _ck.lib is None:
            return
        groups = self.groups
        if any(inst._table is not table
               for side in ("R", "S") for inst in groups[side]):
            return
        ffi = _ck.ffi
        self._scratch = np.zeros(
            (DS_NROW, len(groups["R"]) + len(groups["S"])), dtype=np.int64
        )
        self._slots = {}
        for own in ("R", "S"):
            slots = np.array(
                [inst._slot for inst in groups[own] + groups[opposite(own)]],
                dtype=np.int64,
            )
            self._slots[own] = (slots, ffi.from_buffer("int64_t[]", slots))
        self._c_table = (
            ffi.from_buffer("int64_t[]", table.ints),
            ffi.from_buffer("double[]", table.floats),
            ffi.from_buffer("int64_t[]", self._scratch),
        )
        self._table = table

    # ------------------------------------------------------------------ #
    # route cache
    # ------------------------------------------------------------------ #

    def _rebuild_routes(self, side: str, min_size: int) -> np.ndarray:
        """Recompute the side's route array covering ``min_size`` keys."""
        table = self.routing[side]
        current = self._routes[side]
        size = _MIN_ROUTES
        if current is not None:
            size = max(size, current.shape[0])
        while size < min_size:
            size <<= 1
        size = min(size, _ROUTE_CACHE_CAP)
        routes = hash_to_instance(
            np.arange(size, dtype=np.int64),
            self.partitioners[side].n_instances,
        )
        table.overlay_routes(routes)
        self._routes[side] = routes
        self._route_version[side] = table.version
        return routes

    def _route_array(self, side: str, max_key: int) -> np.ndarray:
        """The side's cached route array, rebuilt when the routing table
        moved on or ``max_key`` lies past it; the caller has verified
        every key is in ``[0, _ROUTE_CACHE_CAP)``."""
        routes = self._routes[side]
        if (
            routes is None
            or self._route_version[side] != self.routing[side].version
            or max_key >= routes.shape[0]
        ):
            routes = self._rebuild_routes(side, max_key + 1)
        return routes

    def _routed_targets(self, side: str, keys: np.ndarray, max_key: int) -> np.ndarray:
        """Cached content-based routing for a batch (fanout-1 sides).

        ``max_key`` is the batch's precomputed maximum; the caller has
        already verified every key is in ``[0, _ROUTE_CACHE_CAP)``.
        """
        routes = self._route_array(side, max_key)
        # Gather into arena scratch instead of allocating a fresh dest
        # array per dispatch.  The caller has bounds-checked every key, so
        # mode="clip" never clips — it just skips take's buffered
        # bounds-checking copy.  The view is consumed by the scatter
        # before the next _routed_targets call overwrites the tag.
        dest = self._arena.array("routed", keys.shape[0], np.int64)
        np.take(routes, keys, out=dest, mode="clip")
        return dest

    def _deliver(self, own: str, keys: np.ndarray, max_key: int,
                 t_own: float, t_other: float) -> None:
        """The C dispatch of a content-based batch: stores into ``own``'s
        rings, probes into the other side's, retried after making room
        (module docstring)."""
        other = opposite(own)
        ffi, lib = _ck.ffi, _ck.lib
        c_keys = ffi.from_buffer("int64_t[]", np.ascontiguousarray(keys))
        c_own = ffi.from_buffer("int64_t[]", self._route_array(own, max_key))
        c_other = ffi.from_buffer("int64_t[]", self._route_array(other, max_key))
        slots, c_slots = self._slots[own]
        k0 = len(self.groups[own])
        k1 = len(self.groups[other])
        c_ints, c_floats, c_scratch = self._c_table
        table = self._table
        while True:
            refused = lib.dispatch_batch(
                c_keys, keys.shape[0], c_own, c_other, c_slots, k0, k1,
                t_own, t_other, table.width, c_ints, c_floats, c_scratch,
            )
            if refused == 0:
                return
            if refused < 0:
                raise SimulationError("route outside its instance group")
            scratch = self._scratch
            for c in np.flatnonzero(scratch[DS_FLAG, : k0 + k1]).tolist():
                table.make_room(int(slots[c]), int(scratch[DS_CNT, c]))

    # ------------------------------------------------------------------ #

    def _scatter(
        self,
        side: str,
        dest: np.ndarray,
        keys: np.ndarray,
        time: float,
        op: int,
    ) -> None:
        """Deliver key blocks to instances of ``side`` grouped by dest."""
        instances = self.groups[side]
        for d, block in counting_blocks(dest, keys, len(instances), self._arena):
            instances[d].enqueue_block(block, time, op)

    def dispatch(
        self,
        stream: str,
        keys: np.ndarray,
        emit_time: float,
        extra_delay: float = 0.0,
    ) -> None:
        """Route one tick's batch of tuples belonging to ``stream``.

        Stores go to the ``stream`` side, probes to the opposite side.
        ``extra_delay`` shifts the whole batch's visible time on top of
        the network model — the fault injector's delay/drop-and-retransmit
        actions.  Applying it to the entire batch (both the store and all
        its probes) models an ordered reliable channel, so same-key FIFO
        service order — the completeness argument — is never perturbed.
        """
        keys = np.asarray(keys, dtype=np.int64)
        n = keys.shape[0]
        if n == 0:
            return
        own, other = stream, opposite(stream)
        t_own = emit_time + self._delay_of[own] + extra_delay
        t_other = emit_time + self._delay_of[other] + extra_delay
        # One bounds scan serves both sides' route-cache eligibility.
        min_key = int(keys.min())
        max_key = int(keys.max())
        cacheable = min_key >= 0 and max_key < _ROUTE_CACHE_CAP

        part_own = self.partitioners[own]
        part_other = self.partitioners[other]
        if (self._table is not None and cacheable and part_own.content_based
                and part_other.content_based):
            self._deliver(own, keys, max_key, t_own, t_other)
            self._account(stream, keys, n, emit_time, t_own, t_other)
            return

        # --- store path -------------------------------------------------- #
        if part_own.content_based and cacheable:
            store_dest = self._routed_targets(own, keys, max_key)
        else:
            store_dest = part_own.store_targets(keys, self.rng)
            if part_own.content_based:
                store_dest = self.routing[own].apply(keys, store_dest)
        self._scatter(own, store_dest, keys, t_own, OP_STORE)

        # --- probe path --------------------------------------------------- #
        if part_other.probe_broadcast:
            # Every instance receives the whole batch in key order — the
            # stable dest-sort of the replicated (dest, src) arrays reduces
            # to handing each instance the original keys, so neither the
            # fanout-sized arrays nor the argsort are materialised.
            for inst in self.groups[other]:
                inst.enqueue_block(keys, t_other, OP_PROBE)
            n_probes = n * len(self.groups[other])
        elif part_other.content_based and cacheable:
            # Content-based probes are fanout-1 and use the same key ->
            # instance map as stores of that side: reuse the cache.
            probe_dest = self._routed_targets(other, keys, max_key)
            self._scatter(other, probe_dest, keys, t_other, OP_PROBE)
            n_probes = n
        else:
            probe_dest, src = part_other.probe_targets(keys, self.rng)
            probe_keys = keys[src]
            if part_other.content_based:
                probe_dest = self.routing[other].apply(probe_keys, probe_dest)
            self._scatter(other, probe_dest, probe_keys, t_other, OP_PROBE)
            n_probes = int(probe_keys.shape[0])
        self._account(stream, keys, n_probes, emit_time, t_own, t_other)

    def _account(self, stream: str, keys: np.ndarray, n_probes: int,
                 emit_time: float, t_own: float, t_other: float) -> None:
        """Message and delay accounting of one delivered batch."""
        own, other = stream, opposite(stream)
        n = keys.shape[0]
        self.stats.stores_sent += n
        self.stats.stores_to_side[own] += n
        self.stats.probes_sent += n_probes
        self.stats.probes_to_side[other] += n_probes
        # Delay charged to this batch: every delivered operation becomes
        # visible delay seconds after emission, and that wait lands in the
        # tuples' queue_wait attribution component.
        delay = n * (t_own - emit_time) + n_probes * (t_other - emit_time)
        self.stats.delay_charged[stream] += delay

        if self.obs is not None:
            self.obs.on_dispatch(stream, keys, n_probes, other, emit_time,
                                 delay=delay)

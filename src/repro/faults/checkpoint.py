"""Per-instance checkpoints and the store-op write-ahead log.

The recovery model (DESIGN §6): the tuple queue is the *durable* input
channel — like the Kafka/Storm spout feeding a real deployment it
survives a worker crash and keeps absorbing deliveries while the worker
is down — and emitted join results are durable downstream.  The only
volatile state an instance owns is therefore its key store.  Because
probes never mutate the store, rebuilding it needs no replay of service
order: the crash-time store is exactly

    checkpoint counts  +  every store-op key consumed since the checkpoint

which is what :meth:`InstanceCheckpointer.rebuild_arrays` computes.  The
instance records each consumed store batch into the WAL on its hot path
(:meth:`record_stores`), and a checkpoint atomically snapshots the live
counts, truncates the WAL and notes the queue watermark
(:attr:`~repro.engine.queues.TupleQueue.consumed_total`).

The checkpoint image is a pair of sorted int64 arrays (``keys``,
``counts``) taken straight from the store's dense table — one
``flatnonzero`` and one gather, no Python object per key — so a periodic
checkpoint costs a scan of the table, not a dict of every stored key.

Migrations mutate stores *outside* the consume path, so the migration
executor forces a checkpoint of both parties at commit — making

    live store  ==  checkpoint + WAL

a standing invariant, enforced every guard period by
:meth:`~repro.validate.invariants.InvariantGuards.check_recovery` and
relied on verbatim by crash recovery.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..join.storage import sorted_union

__all__ = ["InstanceCheckpointer"]

_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False


class InstanceCheckpointer:
    """Checkpoint + WAL + crash flag for one :class:`JoinInstance`.

    ``keys`` / ``counts`` hold the checkpoint image.  They are replaced
    wholesale by every checkpoint and never mutated in place, so handing
    them out (state export, the empty-WAL rebuild) needs no copy.
    """

    def __init__(self, inst) -> None:
        self.inst = inst
        self.keys: np.ndarray = _EMPTY
        self.counts: np.ndarray = _EMPTY
        self.wal: list[np.ndarray] = []
        self.watermark: int = 0
        self.crashed = False
        self.last_checkpoint_time = 0.0
        self.n_checkpoints = 0
        self.n_recoveries = 0

    # -- hot path ------------------------------------------------------- #

    def record_stores(self, keys: np.ndarray) -> None:
        """Append one consumed store batch to the WAL.

        ``keys`` is freshly materialised by the caller's mask indexing,
        so no defensive copy is needed.
        """
        if keys.shape[0]:
            self.wal.append(keys)

    # -- checkpoint lifecycle ------------------------------------------- #

    def checkpoint(self, now: float) -> int:
        """Snapshot live counts, truncate the WAL, note the watermark.

        Returns the number of stored tuples captured.  Never called on a
        crashed instance — its live store is gone and the pre-crash
        checkpoint state is exactly what recovery needs.
        """
        if self.crashed:
            raise SimulationError(
                f"checkpoint of crashed instance {self.inst.side}"
                f"{self.inst.instance_id}"
            )
        keys, counts = self.inst.store.nonzero_counts()
        keys.flags.writeable = False
        counts.flags.writeable = False
        self.keys = keys
        self.counts = counts
        self.wal.clear()
        self.watermark = self.inst.queue.consumed_total
        self.last_checkpoint_time = now
        self.n_checkpoints += 1
        return int(counts.sum())

    def rebuild_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Crash-time store contents: checkpoint + WAL as sorted, zero-free
        ``(keys, counts)`` arrays, accumulated exactly in int64."""
        if not self.wal:
            return self.keys, self.counts
        wal_keys, wal_counts = np.unique(
            np.concatenate(self.wal), return_counts=True
        )
        keys, at_image, at_wal = sorted_union(self.keys, wal_keys)
        counts = np.zeros(keys.shape[0], dtype=np.int64)
        counts[at_image] = self.counts
        counts[at_wal] += wal_counts
        return keys, counts

    def rebuild_counts(self) -> dict[int, int]:
        """:meth:`rebuild_arrays` as a dict (crash-time hand-offs)."""
        keys, counts = self.rebuild_arrays()
        return dict(zip(keys.tolist(), counts.tolist()))

    # -- crash / recovery ----------------------------------------------- #

    def crash(self) -> None:
        """Destroy the volatile store.  Genuinely destructive on purpose:
        a checkpoint or WAL bug now breaks completeness and the exact
        oracle catches it, instead of the store silently surviving."""
        self.inst.store.clear()
        self.crashed = True

    def recover_restart(self, now: float) -> int:
        """Rebuild the store in place from checkpoint + WAL.

        Returns the number of restored tuples (drives the restore-cost
        pause charged by the injector).
        """
        keys, counts = self.rebuild_arrays()
        self.inst.store.merge_arrays(keys, counts)
        self.crashed = False
        self.n_recoveries += 1
        self.checkpoint(now)
        return int(counts.sum())

    def recover_empty(self, now: float) -> None:
        """Rejoin with a fresh, empty store (after a failover moved the
        rebuilt state to a surviving peer)."""
        self.crashed = False
        self.n_recoveries += 1
        self.checkpoint(now)

    # -- verification ---------------------------------------------------- #

    def verify(self) -> str | None:
        """The standing invariant: live store == checkpoint + WAL.

        Returns ``None`` when consistent, else a human-readable
        discrepancy description (the guards turn it into a
        ValidationError).  A crashed instance must have an empty store.
        """
        if self.crashed:
            if self.inst.store.total != 0:
                return (
                    f"crashed instance holds {self.inst.store.total} stored "
                    "tuples; crash must destroy the volatile store"
                )
            return None
        keys, counts = self.rebuild_arrays()
        live_keys, live_counts = self.inst.store.nonzero_counts()
        if not (
            np.array_equal(keys, live_keys)
            and np.array_equal(counts, live_counts)
        ):
            rebuilt = dict(zip(keys.tolist(), counts.tolist()))
            live = dict(zip(live_keys.tolist(), live_counts.tolist()))
            extra = {k: c for k, c in live.items() if rebuilt.get(k) != c}
            missing = {k: c for k, c in rebuilt.items() if live.get(k) != c}
            return (
                f"checkpoint+WAL diverges from live store "
                f"(ckpt t={self.last_checkpoint_time:.3f}s, "
                f"{len(self.wal)} WAL blocks): live-only={dict(list(extra.items())[:5])} "
                f"rebuilt-only={dict(list(missing.items())[:5])}"
            )
        return None

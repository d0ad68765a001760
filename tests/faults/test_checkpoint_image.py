"""Checkpoint images as sorted key/count arrays — model-based checks.

The checkpoint image is a pair of sorted int64 arrays taken from the
store's dense table, and recovery merges the rebuilt arrays back with
:meth:`KeyedStore.merge_arrays`.  A plain dict models the live store, a
second dict plus a WAL counter model checkpoint + WAL, and a second
:class:`KeyedStore` that merges through the per-key ``add`` path pins the
dense table's growth.  Keys include overflow keys (negative and at or
beyond ``DENSE_KEY_CAP``) and a dense key that forces the table to grow.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import SimulationError, StorageError
from repro.faults.checkpoint import InstanceCheckpointer
from repro.join.storage import DENSE_KEY_CAP, KeyedStore

KEYS = st.one_of(
    st.integers(0, 40),
    st.sampled_from([3000, -7, -1, DENSE_KEY_CAP, DENSE_KEY_CAP + 5, 1 << 40]),
)


def _instance(store):
    """The slice of a JoinInstance a checkpointer touches."""
    return SimpleNamespace(
        store=store, queue=SimpleNamespace(consumed_total=0),
        side="R", instance_id=0,
    )


def _positive(counts) -> dict[int, int]:
    return {k: c for k, c in counts.items() if c}


def _as_dict(keys, counts) -> dict[int, int]:
    return dict(zip(keys.tolist(), counts.tolist()))


class CheckpointImageMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = KeyedStore()
        #: the same mutations, with every merge done by per-key ``add``
        self.ref = KeyedStore()
        self.ckptr = InstanceCheckpointer(_instance(self.store))
        self.live: Counter = Counter()
        self.image: dict[int, int] = {}
        self.wal: Counter = Counter()

    def _rebuilt(self) -> dict[int, int]:
        return _positive(Counter(self.image) + self.wal)

    # -- the consume path: store + WAL ---------------------------------- #

    @precondition(lambda self: not self.ckptr.crashed)
    @rule(keys=st.lists(KEYS, min_size=1, max_size=30))
    def consume_stores(self, keys):
        arr = np.array(keys, dtype=np.int64)
        self.store.add_batch(arr)
        self.ref.add_batch(arr)
        self.ckptr.record_stores(arr.copy())
        self.live.update(keys)
        self.wal.update(keys)

    # -- out-of-band mutations (migrations): bypass the WAL ------------- #

    @precondition(lambda self: not self.ckptr.crashed)
    @rule(key=KEYS, count=st.integers(0, 4))
    def add(self, key, count):
        self.store.add(key, count)
        self.ref.add(key, count)
        self.live[key] += count

    @precondition(lambda self: not self.ckptr.crashed)
    @rule(keys=st.sets(KEYS, max_size=4))
    def remove_keys(self, keys):
        removed = self.store.remove_keys(keys)
        self.ref.remove_keys(keys)
        assert removed == {k: self.live[k] for k in keys if self.live[k]}
        for k in keys:
            self.live.pop(k, None)

    @precondition(lambda self: not self.ckptr.crashed)
    @rule(counts=st.dictionaries(KEYS, st.integers(0, 4), max_size=5))
    def merge_counts(self, counts):
        self.store.merge_counts(counts)
        for k, c in counts.items():
            self.ref.add(k, c)
        self.live.update(counts)

    @precondition(lambda self: not self.ckptr.crashed)
    @rule(pairs=st.lists(st.tuples(KEYS, st.integers(0, 4)), max_size=6))
    def merge_arrays_with_duplicates(self, pairs):
        keys = np.array([k for k, _ in pairs], dtype=np.int64)
        counts = np.array([c for _, c in pairs], dtype=np.int64)
        self.store.merge_arrays(keys, counts)
        for k, c in pairs:
            self.ref.add(k, c)
            self.live[k] += c

    # -- checkpoint lifecycle -------------------------------------------- #

    @precondition(lambda self: not self.ckptr.crashed)
    @rule()
    def checkpoint(self):
        assert self.ckptr.checkpoint(0.0) == sum(self.live.values())
        self.image = _positive(self.live)
        self.wal.clear()

    @precondition(lambda self: not self.ckptr.crashed)
    @rule()
    def crash(self):
        self.ckptr.crash()
        self.ref.clear()
        self.live.clear()

    @precondition(lambda self: self.ckptr.crashed)
    @rule()
    def recover_restart(self):
        expected = self._rebuilt()
        assert self.ckptr.recover_restart(1.0) == sum(expected.values())
        for k, c in expected.items():
            self.ref.add(k, c)
        self.live = Counter(expected)
        self.image = expected
        self.wal.clear()

    # -- invariants ------------------------------------------------------ #

    @invariant()
    def store_equals_model(self):
        assert self.store.counts_snapshot() == _positive(self.live)
        assert self.store.total == sum(self.live.values())

    @invariant()
    def growth_matches_per_key_add(self):
        assert self.store._dense.shape == self.ref._dense.shape
        assert self.ref.counts_snapshot() == self.store.counts_snapshot()

    @invariant()
    def image_is_not_aliased(self):
        keys = self.ckptr.keys
        assert _as_dict(keys, self.ckptr.counts) == self.image
        assert (np.diff(keys) > 0).all()

    @invariant()
    def rebuild_equals_model(self):
        assert self.ckptr.rebuild_counts() == self._rebuilt()

    @invariant()
    def verify_iff_consistent(self):
        if self.ckptr.crashed:
            assert self.ckptr.verify() is None
            return
        consistent = self._rebuilt() == _positive(self.live)
        assert (self.ckptr.verify() is None) == consistent


TestCheckpointImage = CheckpointImageMachine.TestCase
TestCheckpointImage.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


class TestNonzeroCounts:
    def test_sorted_across_dense_and_overflow(self):
        s = KeyedStore()
        s.add_batch(np.array([5, 1 << 40, 2, -7, 5], dtype=np.int64))
        keys, counts = s.nonzero_counts()
        assert keys.dtype == counts.dtype == np.int64
        assert keys.tolist() == [-7, 2, 5, 1 << 40]
        assert counts.tolist() == [1, 1, 2, 1]

    def test_arrays_do_not_alias_the_dense_table(self):
        s = KeyedStore()
        s.add_batch(np.array([1, 1, 3], dtype=np.int64))
        keys, counts = s.nonzero_counts()
        s.add(1, 5)
        s.remove_keys({3})
        assert keys.tolist() == [1, 3] and counts.tolist() == [2, 1]


class TestMergeArrays:
    def test_zero_count_grows_like_add(self):
        merged, added = KeyedStore(), KeyedStore()
        merged.merge_arrays(np.array([5000], dtype=np.int64),
                            np.array([0], dtype=np.int64))
        added.add(5000, 0)
        assert merged._dense.shape == added._dense.shape == (8192,)
        assert merged.total == 0 and merged.n_keys == 0

    def test_negative_count_rejected_before_any_mutation(self):
        s = KeyedStore()
        with pytest.raises(StorageError, match="key -7"):
            s.merge_arrays(np.array([1, -7], dtype=np.int64),
                           np.array([3, -1], dtype=np.int64))
        assert s.total == 0 and s.counts_snapshot() == {}


def test_checkpoint_of_crashed_instance_raises():
    ckptr = InstanceCheckpointer(_instance(KeyedStore()))
    ckptr.crash()
    with pytest.raises(SimulationError):
        ckptr.checkpoint(0.0)

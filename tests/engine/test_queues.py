"""Tests for the tuple queue (FIFO, visibility, per-key probe counters)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.queues import TupleQueue
from repro.engine.tuples import OP_PROBE, OP_STORE, Batch
from repro.errors import SimulationError


def make_batch(keys, times=None, ops=None):
    keys = np.asarray(keys, dtype=np.int64)
    if times is None:
        times = np.zeros(keys.shape[0])
    if ops is None:
        ops = np.full(keys.shape[0], OP_PROBE, dtype=np.int8)
    return Batch(keys=keys, times=np.asarray(times, dtype=np.float64), ops=np.asarray(ops, dtype=np.int8))


class TestPushPeekConsume:
    def test_empty_queue(self):
        q = TupleQueue()
        assert len(q) == 0
        assert q.probe_backlog == 0
        assert len(q.peek_visible(10.0)) == 0

    def test_fifo_order(self):
        q = TupleQueue()
        q.push(make_batch([1, 2, 3]))
        q.push(make_batch([4, 5]))
        out = q.peek_visible(1.0)
        assert out.keys.tolist() == [1, 2, 3, 4, 5]

    def test_consume_removes_prefix(self):
        q = TupleQueue()
        q.push(make_batch([1, 2, 3]))
        q.consume(2)
        assert q.peek_visible(1.0).keys.tolist() == [3]

    def test_consume_too_many_raises(self):
        q = TupleQueue()
        q.push(make_batch([1]))
        with pytest.raises(SimulationError):
            q.consume(2)

    def test_visibility_blocks_future_tuples(self):
        q = TupleQueue()
        q.push(make_batch([1, 2, 3], times=[0.0, 5.0, 0.0]))
        out = q.peek_visible(1.0)
        # tuple 2 (visible at t=5) blocks tuple 3 behind it: ordered channel
        assert out.keys.tolist() == [1]

    def test_limit(self):
        q = TupleQueue()
        q.push(make_batch(list(range(100))))
        assert len(q.peek_visible(1.0, limit=7)) == 7

    def test_growth_beyond_initial_capacity(self):
        q = TupleQueue(initial_capacity=64)
        for i in range(10):
            q.push(make_batch(list(range(i * 50, (i + 1) * 50))))
        assert len(q) == 500
        assert q.peek_visible(1.0).keys.tolist() == list(range(500))

    def test_wraparound(self):
        q = TupleQueue(initial_capacity=64)
        q.push(make_batch(list(range(60))))
        q.consume(50)
        q.push(make_batch(list(range(100, 140))))  # wraps around the ring
        out = q.peek_visible(1.0)
        assert out.keys.tolist() == list(range(50, 60)) + list(range(100, 140))


class TestProbeCounters:
    def test_backlog_counts_probes_only(self):
        q = TupleQueue()
        q.push(make_batch([1, 2], ops=[OP_STORE, OP_PROBE]))
        assert q.probe_backlog == 1
        assert len(q) == 2

    def test_per_key_counts(self):
        q = TupleQueue()
        q.push(make_batch([7, 7, 8], ops=[OP_PROBE] * 3))
        assert q.probe_count(7) == 2
        assert q.probe_count(8) == 1
        assert q.probe_count(99) == 0

    def test_counts_decrease_on_consume(self):
        q = TupleQueue()
        q.push(make_batch([7, 7, 8]))
        q.consume(2)
        assert q.probe_count(7) == 0
        assert q.probe_count(8) == 1
        assert q.probe_backlog == 1

    def test_snapshot_omits_zeros(self):
        q = TupleQueue()
        q.push(make_batch([1, 2]))
        q.consume(1)
        snap = q.probe_counts_snapshot()
        assert snap == {2: 1}


class TestExtractKeys:
    def test_extract_removes_matching(self):
        q = TupleQueue()
        q.push(make_batch([1, 2, 3, 2, 1]))
        out = q.extract_keys({2})
        assert sorted(out.keys.tolist()) == [2, 2]
        assert q.peek_visible(1.0).keys.tolist() == [1, 3, 1]
        assert q.probe_count(2) == 0

    def test_extract_preserves_relative_order(self):
        q = TupleQueue()
        q.push(make_batch([5, 1, 5, 2]))
        out = q.extract_keys({5})
        assert out.keys.tolist() == [5, 5]
        assert q.peek_visible(1.0).keys.tolist() == [1, 2]

    def test_extract_nothing(self):
        q = TupleQueue()
        q.push(make_batch([1, 2]))
        out = q.extract_keys({99})
        assert len(out) == 0
        assert len(q) == 2

    def test_extract_empty_keyset(self):
        q = TupleQueue()
        q.push(make_batch([1]))
        assert len(q.extract_keys(set())) == 0

    def test_extract_mixed_ops_keeps_op_markers(self):
        q = TupleQueue()
        q.push(make_batch([4, 4], ops=[OP_STORE, OP_PROBE]))
        out = q.extract_keys({4})
        assert sorted(out.ops.tolist()) == [OP_STORE, OP_PROBE]


class TestClear:
    def test_clear_returns_all(self):
        q = TupleQueue()
        q.push(make_batch([1, 2, 3], times=[0.0, 99.0, 0.0]))
        out = q.clear()
        assert len(out) == 3
        assert len(q) == 0
        assert q.probe_backlog == 0


@settings(max_examples=50, deadline=None)
@given(
    ops_seq=st.lists(
        st.tuples(
            st.lists(st.integers(0, 20), min_size=0, max_size=30),  # push keys
            st.integers(0, 10),  # consume count
        ),
        min_size=1,
        max_size=20,
    )
)
def test_probe_backlog_invariant(ops_seq):
    """probe_backlog always equals the sum of per-key probe counts and the
    number of queued probe tuples, across any push/consume interleaving."""
    q = TupleQueue()
    expected = []
    for push_keys, consume_n in ops_seq:
        if push_keys:
            q.push(make_batch(push_keys))
            expected.extend(push_keys)
        n = min(consume_n, len(q))
        q.consume(n)
        expected = expected[n:]
        assert len(q) == len(expected)
        assert q.probe_backlog == len(expected)
        assert sum(q.probe_counts_snapshot().values()) == len(expected)
        visible = q.peek_visible(np.inf)
        assert visible.keys.tolist() == expected


class TestWrappedPeek:
    """Regression tests for the wrapped-ring peek paths (DESIGN §9).

    A wrapped live region used to be peeked through an arange-modulo fancy
    index — one fresh index array plus three fancy-index copies per peek.
    The ordered datapath now resolves the cut per ring segment: peeks that
    end inside the first segment stay *slice-backed* (zero copies), and
    only a peek that truly spans both segments stitches into arena scratch.
    """

    @staticmethod
    def _wrapped_queue():
        # cap 64; consume 30 then append 20 more: live region is
        # [30:64] (34 tuples, t=1.0) + [0:20] (20 tuples, t=5.0).
        q = TupleQueue()
        q.push_block(np.arange(64, dtype=np.int64), 1.0, OP_PROBE)
        q.consume(30)
        q.push_block(np.arange(100, 120, dtype=np.int64), 5.0, OP_STORE)
        assert q._head + len(q) > q.capacity  # really wrapped
        assert q._monotonic
        return q

    def test_cut_inside_first_segment_is_slice_backed(self):
        q = self._wrapped_queue()
        out = q.peek_visible(2.0, limit=10)
        assert out.keys.tolist() == list(range(30, 40))
        # The regression: a wrapped peek whose cut lands in the first ring
        # segment must alias the ring buffer, not a fancy-index copy.
        assert out.keys.base is q._keys
        assert out.ops.base is q._ops

    def test_whole_first_segment_visible_second_not(self):
        q = self._wrapped_queue()
        out = q.peek_visible(2.0)
        assert out.keys.tolist() == list(range(30, 64))
        assert out.keys.base is q._keys

    def test_two_segment_stitch_matches_reference(self):
        q = self._wrapped_queue()
        out = q.peek_visible(6.0)
        assert out.keys.tolist() == list(range(30, 64)) + list(range(100, 120))
        assert out.times.tolist() == [1.0] * 34 + [5.0] * 20
        assert out.ops.tolist() == [OP_PROBE] * 34 + [OP_STORE] * 20

    def test_stitch_respects_limit(self):
        q = self._wrapped_queue()
        out = q.peek_visible(6.0, limit=40)
        assert out.keys.tolist() == list(range(30, 64)) + list(range(100, 106))

    def test_nothing_visible_wrapped(self):
        q = self._wrapped_queue()
        assert len(q.peek_visible(0.5)) == 0

    def test_wrapped_peek_reuses_arena_buffers(self):
        q = self._wrapped_queue()
        first = q.peek_visible(6.0)
        grows = q._arena.grows
        again = q.peek_visible(6.0)
        assert q._arena.grows == grows  # steady state: no new backing buffers
        assert again.keys.tolist() == first.keys.tolist()

    def test_non_monotonic_wrapped_falls_back_correctly(self):
        q = self._wrapped_queue()
        # Generic push clears the monotonic flag; correctness must survive.
        q.push(make_batch([7, 8], times=[3.0, 2.0]))
        assert not q._monotonic
        out = q.peek_visible(6.0)
        assert out.keys.tolist() == (
            list(range(30, 64)) + list(range(100, 120)) + [7, 8]
        )


# --------------------------------------------------------------------- #
# the order flag and its disorder watermark
# --------------------------------------------------------------------- #

_queue_ops = st.lists(
    st.one_of(
        # an in-order or out-of-order dispatch block
        st.tuples(st.just("block"), st.integers(1, 40), st.floats(-0.5, 1.0),
                  st.booleans()),
        # a generic push with arbitrary times (a migration hand-off)
        st.tuples(st.just("push"), st.integers(1, 30), st.integers(0, 2**31),
                  st.booleans()),
        st.tuples(st.just("consume"), st.floats(0.0, 1.0)),
        st.tuples(st.just("extract"), st.integers(0, 2**31)),
        st.tuples(st.just("clear")),
    ),
    min_size=1,
    max_size=60,
)


def _reference_peek(times, now, limit):
    """The visible prefix by a plain scan: up to the first tuple past
    ``now`` among the first ``limit``."""
    n = min(len(times), limit)
    for j in range(n):
        if times[j] > now:
            return j
    return n


@settings(max_examples=300, deadline=None)
@given(ops=_queue_ops, peek_at=st.floats(-1.0, 60.0), limit=st.integers(1, 200))
def test_order_flag_and_watermark(ops, peek_at, limit):
    """Random push/push_block/consume/extract_keys/clear sequences: the
    ordered flag only ever claims nondecreasing live times, order returns
    once every tuple of the disordered region has been consumed, and
    peek_visible equals a reference scan on either path."""
    q = TupleQueue(initial_capacity=64)
    live: list[tuple[int, float, int]] = []  # reference FIFO
    disordered = 0   # leading live tuples an out-of-order push may disorder
    tail = -np.inf   # time of the last in-order dispatch block
    clock = 0.0
    rng = np.random.default_rng(len(ops))
    for op in ops:
        kind = op[0]
        if kind == "block":
            _, n, step, probe = op
            clock += step
            keys = rng.integers(0, 50, n).astype(np.int64)
            code = OP_PROBE if probe else OP_STORE
            q.push_block(keys, clock, code)
            live += [(int(k), clock, code) for k in keys]
            if clock < tail:
                disordered, tail = len(live), -np.inf
            else:
                tail = clock
        elif kind == "push":
            _, n, seed, probe = op
            r = np.random.default_rng(seed)
            batch = make_batch(
                r.integers(0, 50, n), r.uniform(clock - 2.0, clock + 1.0, n),
                np.full(n, OP_PROBE if probe else OP_STORE, dtype=np.int8),
            )
            q.push(batch)
            live += list(zip(batch.keys.tolist(), batch.times.tolist(),
                             batch.ops.tolist()))
            disordered, tail = len(live), -np.inf
        elif kind == "consume":
            n = int(op[1] * len(live))
            q.consume(n)
            del live[:n]
            disordered = max(disordered - n, 0)
        elif kind == "extract":
            keys = set(np.random.default_rng(op[1]).integers(0, 50, 5).tolist())
            out = q.extract_keys(keys)
            gone = sum(1 for k, _, _ in live if k in keys)
            assert len(out) == gone
            was_ordered = disordered == 0
            live = [t for t in live if t[0] not in keys]
            if live and gone:
                if was_ordered:
                    tail = live[-1][1]
                else:
                    disordered, tail = len(live), -np.inf
        else:
            q.clear()
            live, disordered, tail = [], 0, -np.inf
        if not live:
            disordered = 0
        times = [t for _, t, _ in live]
        assert len(q) == len(live)
        if q._monotonic:
            assert times == sorted(times), "ordered flag on unordered times"
        assert bool(q._monotonic) == (disordered == 0), (
            "order must return exactly when the disordered region is served"
        )
        batch = q.peek_visible(peek_at, limit=limit)
        cut = _reference_peek(times, peek_at, limit)
        assert batch.keys.tolist() == [k for k, _, _ in live[:cut]]
        assert batch.times.tolist() == times[:cut]
        assert batch.ops.tolist() == [o for _, _, o in live[:cut]]


def test_migrated_queue_regains_order_without_draining():
    """A migration hand-off into a backlogged queue leaves it unordered
    only until the handed-off tuples (and those queued before them) are
    served — the queue never has to drain."""
    q = TupleQueue()
    q.push_block(np.arange(10, dtype=np.int64), 1.0, OP_PROBE)
    q.push(make_batch([7, 8, 9], [0.5, 0.2, 0.9]))
    assert not q._monotonic
    q.push_block(np.arange(20, dtype=np.int64), 2.0, OP_PROBE)
    q.consume(12)
    assert not q._monotonic  # one handed-off tuple is still queued
    q.consume(1)
    assert q._monotonic and len(q) == 20

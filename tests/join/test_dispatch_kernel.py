"""Differential tests: the C dispatch against the numpy reference.

A dispatcher bound to a service table (:meth:`Dispatcher.bind_table`)
routes a content-based batch with one C call that appends every key at
its destination ring's tail and moves the queue cursors in the table; an
unbound dispatcher runs the numpy reference (``counting_blocks`` +
``push_block``).  Two identical systems, one per path, receive the same
batches after the same ring set-up — empty rings still holding the empty
key-bound sentinels, drained, wrapped, exactly full, needing growth, or
unordered past a disorder watermark — with route overrides, and batches
emitted before a ring's tail time.  Cursors, capacities, generations,
live ring contents and message counts must be byte-identical.

Skipped when the kernels could not be built.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import RoutingTable
from repro.engine import ckernels
from repro.engine.columns import F_QUEUE, I_QUEUE, Q_GEN, Q_NFLOAT, Q_NINT
from repro.engine.tuples import OP_PROBE, OP_STORE, Batch
from repro.errors import SimulationError
from repro.join.dispatcher import Dispatcher
from repro.join.instance import JoinInstance
from repro.join.partitioners import HashPartitioner
from repro.join.service import ServiceTable

pytestmark = pytest.mark.skipif(
    not ckernels.available(), reason="C kernels unavailable (no cffi/cc)"
)

SHAPES = ("sentinel", "drained", "wrapped", "full", "growth", "unordered")


def _system(n_r, n_s, overrides, bind):
    groups = {
        "R": [JoinInstance(i, "R") for i in range(n_r)],
        "S": [JoinInstance(i, "S") for i in range(n_s)],
    }
    partitioners = {"R": HashPartitioner(n_r), "S": HashPartitioner(n_s)}
    routing = {"R": RoutingTable(n_r), "S": RoutingTable(n_s)}
    for side, n in (("R", n_r), ("S", n_s)):
        for key, target in overrides:
            routing[side].install([key], target % n)
    dispatcher = Dispatcher(groups, partitioners, routing)
    table = ServiceTable(groups["R"] + groups["S"])
    if bind:
        dispatcher.bind_table(table)
        assert dispatcher._table is table
    return dispatcher, table


def _shape_ring(queue, shape, a, b):
    """Bring ``queue`` (capacity 64) into one of the SHAPES."""
    keys = np.arange(100, 164, dtype=np.int64)
    if shape == "drained":
        queue.push_block(keys[:a], 0.5, OP_PROBE)
        queue.consume(a)
    elif shape == "wrapped":
        queue.push_block(keys[:40], 0.25, OP_STORE)
        queue.consume(30)
        queue.push_block(keys[:b + 20], 0.5, OP_PROBE)  # wraps past slot 63
    elif shape == "full":
        queue.push_block(keys, 0.5, OP_STORE)
    elif shape == "growth":
        queue.push_block(keys[: 64 - a % 4], 0.5, OP_PROBE)
    elif shape == "unordered":
        queue.push_block(keys[:20], 1.0, OP_STORE)
        times = np.linspace(2.0, 0.0, a)
        queue.push(Batch(keys=keys[:a] + 1000, times=times,
                         ops=np.full(a, OP_PROBE, dtype=np.int8)))
        queue.consume(5)  # still short of the watermark


def _state(dispatcher, table):
    out = []
    for slot, inst in enumerate(table.instances):
        q = inst.queue
        keys, times, ops = q._live()
        out.append((
            table.ints[I_QUEUE : I_QUEUE + Q_NINT, slot].tobytes(),
            table.floats[F_QUEUE : F_QUEUE + Q_NFLOAT, slot].tobytes(),
            q.capacity,
            keys.tobytes(), times.tobytes(), ops.tobytes(),
        ))
    stats = dispatcher.stats
    out.append((stats.stores_sent, stats.probes_sent,
                dict(stats.stores_to_side), dict(stats.probes_to_side),
                dict(stats.delay_charged)))
    return out


batches = st.lists(
    st.tuples(
        st.sampled_from(["R", "S"]),
        st.lists(st.integers(0, 3_000), min_size=1, max_size=150),
        st.sampled_from([0.0, 0.3, 1.0, 1.5, 3.0]),
        st.sampled_from([0.0, 0.0, 0.2]),
        # now and then a key past the route cache: the numpy fallback
        st.sampled_from([False] * 5 + [True]),
    ),
    min_size=1, max_size=6,
)


@given(
    n_r=st.integers(1, 5),
    n_s=st.integers(1, 5),
    shapes=st.lists(st.tuples(st.sampled_from(SHAPES), st.integers(1, 30),
                              st.integers(0, 10)), min_size=10, max_size=10),
    overrides=st.lists(st.tuples(st.integers(0, 3_000), st.integers(0, 4)),
                       max_size=8),
    batches=batches,
)
@settings(max_examples=150)
def test_c_dispatch_equals_numpy_reference(n_r, n_s, shapes, overrides, batches):
    systems = [_system(n_r, n_s, overrides, bind) for bind in (False, True)]
    for dispatcher, table in systems:
        for inst, (shape, a, b) in zip(table.instances, shapes):
            _shape_ring(inst.queue, shape, a, b)
    pushes = []
    for inst in systems[1][1].instances:
        def spy(*args, push=inst.enqueue_block):
            pushes.append(args)
            push(*args)
        inst.enqueue_block = spy
    for stream, keys, emit_time, extra, giant in batches:
        keys = np.asarray(keys + [1 << 22] * giant, dtype=np.int64)
        for dispatcher, _ in systems:
            dispatcher.dispatch(stream, keys, emit_time, extra_delay=extra)
        if not giant:
            assert not pushes, "the C dispatch fell back to push_block"
        pushes.clear()
    assert _state(*systems[0]) == _state(*systems[1])


def test_full_ring_grows_like_push_block():
    """An exactly full ring refuses, grows by push_block's rule (double,
    or size + n when that is more) and is written on the retry."""
    for bind in (False, True):
        dispatcher, table = _system(1, 1, [], bind)
        q = table.instances[0].queue
        q.push_block(np.arange(64, dtype=np.int64), 0.0, OP_STORE)
        gen = table.ints[I_QUEUE + Q_GEN, 0]
        dispatcher.dispatch("R", np.arange(200, dtype=np.int64), 1.0)
        assert q.capacity == 264 and len(q) == 264
        assert table.ints[I_QUEUE + Q_GEN, 0] == gen + 1


def test_out_of_group_route_raises_without_writing():
    dispatcher, table = _system(2, 2, [], True)
    before = _state(dispatcher, table)
    routes = dispatcher._route_array("R", 10)
    routes[7] = 5  # a corrupt route: group R has two instances
    with pytest.raises(SimulationError):
        dispatcher.dispatch("R", np.array([1, 7], dtype=np.int64), 0.0)
    assert _state(dispatcher, table)[:-1] == before[:-1]


def test_unbound_when_table_misses_an_instance():
    dispatcher, table = _system(2, 2, [], False)
    dispatcher.bind_table(ServiceTable(table.instances[:3]))
    assert dispatcher._table is None

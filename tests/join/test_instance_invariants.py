"""Property tests for join-instance service invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cost import IndexedCost, ScanCost
from repro.engine.tuples import OP_PROBE, OP_STORE, Batch
from repro.join.instance import JoinInstance
from repro.join.service import _prior_same_key_stores


def mixed_batch(ops_spec):
    """ops_spec: list of (key, is_store)."""
    keys = np.array([k for k, _ in ops_spec], dtype=np.int64)
    ops = np.array(
        [OP_STORE if s else OP_PROBE for _, s in ops_spec], dtype=np.int8
    )
    return Batch(keys=keys, times=np.zeros(len(ops_spec)), ops=ops)


@settings(max_examples=100, deadline=None)
@given(
    ops_spec=st.lists(
        st.tuples(st.integers(0, 8), st.booleans()), min_size=1, max_size=100
    )
)
def test_prior_same_key_stores_matches_reference(ops_spec):
    """The vectorised intra-chunk prefix count equals a scalar reference."""
    keys = np.array([k for k, _ in ops_spec], dtype=np.int64)
    store_mask = np.array([s for _, s in ops_spec])
    _, inv = np.unique(keys, return_inverse=True)
    got = _prior_same_key_stores(inv, store_mask)
    seen: dict[int, int] = {}
    for i, (k, is_store) in enumerate(ops_spec):
        assert got[i] == seen.get(k, 0), f"position {i}"
        if is_store:
            seen[k] = seen.get(k, 0) + 1


@settings(max_examples=60, deadline=None)
@given(
    ops_spec=st.lists(
        st.tuples(st.integers(0, 5), st.booleans()), min_size=1, max_size=80
    ),
    capacity=st.sampled_from([50.0, 500.0, 5_000.0]),
)
def test_join_results_match_reference(ops_spec, capacity):
    """Processing a stream of stores/probes in any number of ticks yields
    exactly the reference join-result count (probe matches stores that
    arrived strictly before it)."""
    inst = JoinInstance(
        0, capacity=capacity, cost_model=IndexedCost(),
        backlog_smoothing_tau=0.0,
    )
    inst.enqueue(mixed_batch(ops_spec))
    total_results = 0.0
    t = 0.0
    for _ in range(10_000):
        report = inst.step(t, 1.0)
        total_results += report.n_results
        t += 1.0
        if len(inst.queue) == 0 and report.idle:
            break
    expected = 0
    counts: dict[int, int] = {}
    for k, is_store in ops_spec:
        if is_store:
            counts[k] = counts.get(k, 0) + 1
        else:
            expected += counts.get(k, 0)
    assert total_results == expected


@settings(max_examples=50, deadline=None)
@given(
    n_tuples=st.integers(1, 200),
    capacity=st.sampled_from([10.0, 100.0, 1_000.0]),
)
def test_work_conservation(n_tuples, capacity):
    """An instance never serves more store-ops per tick than its credit
    allows (plus at most one overdraft tuple)."""
    inst = JoinInstance(
        0, capacity=capacity, cost_model=ScanCost(store_cost=1.0),
        backlog_smoothing_tau=0.0,
    )
    keys = np.zeros(n_tuples, dtype=np.int64)
    inst.enqueue(Batch.stores(keys, np.zeros(n_tuples)))
    t = 0.0
    served = 0
    while served < n_tuples:
        report = inst.step(t, 1.0)
        # store cost 1.0 => at most capacity ops per tick (+1 overdraft)
        assert report.n_processed <= int(capacity) + 1
        served += report.n_processed
        t += 1.0
        assert t < 10_000
    assert inst.store.total == n_tuples


@settings(max_examples=50, deadline=None)
@given(
    ops_spec=st.lists(
        st.tuples(st.integers(0, 5), st.booleans()), min_size=1, max_size=60
    ),
    migrate_keys=st.sets(st.integers(0, 5), max_size=3),
)
def test_migration_extract_accept_conserves_everything(ops_spec, migrate_keys):
    """Extract + accept moves stored counts and queued tuples without loss
    or duplication, regardless of interleaving."""
    src = JoinInstance(0, capacity=500.0, backlog_smoothing_tau=0.0)
    dst = JoinInstance(1, capacity=500.0, backlog_smoothing_tau=0.0)
    src.enqueue(mixed_batch(ops_spec))
    src.step(0.0, 1.0)  # process part of the queue

    stored_before = src.store.total + dst.store.total
    queued_before = len(src.queue) + len(dst.queue)

    counts, queued = src.extract_for_migration(set(migrate_keys))
    dst.accept_migration(counts, queued)

    assert src.store.total + dst.store.total == stored_before
    assert len(src.queue) + len(dst.queue) == queued_before
    for k in migrate_keys:
        assert src.store.count(k) == 0
        assert src.queue.probe_count(k) == 0

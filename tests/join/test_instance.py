"""Tests for the join-instance server model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cost import IndexedCost, ScanCost
from repro.engine.tuples import OP_PROBE, OP_STORE, Batch
from repro.errors import ConfigError
from repro.join.instance import JoinInstance
from repro.join.storage import DENSE_KEY_CAP
from repro.join.window import WindowedStore

#: dense keys plus overflow keys on both sides of the dense table
KEYS = st.one_of(st.integers(0, 30), st.sampled_from([-3, DENSE_KEY_CAP + 1]))


def stores(keys, t=0.0):
    keys = np.asarray(keys, dtype=np.int64)
    return Batch.stores(keys, np.full(keys.shape[0], t))


def probes(keys, t=0.0):
    keys = np.asarray(keys, dtype=np.int64)
    return Batch.probes(keys, np.full(keys.shape[0], t))


def make_instance(capacity=1000.0, **kw):
    kw.setdefault("backlog_smoothing_tau", 0.0)  # exact counters in unit tests
    return JoinInstance(0, side="R", capacity=capacity, **kw)


class TestBasics:
    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            JoinInstance(0, capacity=0)
        with pytest.raises(ConfigError):
            JoinInstance(0, side="X")

    def test_store_then_probe_produces_results(self):
        inst = make_instance()
        inst.enqueue(stores([1, 1, 2]))
        inst.enqueue(probes([1]))
        report = inst.step(0.0, 1.0)
        assert report.n_stored == 3
        assert report.n_probed == 1
        assert report.n_results == 2  # two stored tuples with key 1

    def test_probe_against_empty_store_no_results(self):
        inst = make_instance()
        inst.enqueue(probes([1, 2]))
        report = inst.step(0.0, 1.0)
        assert report.n_results == 0

    def test_budget_limits_work(self):
        # store cost 1.0, capacity 10/sec, dt=1 => ~10 stores per tick
        inst = make_instance(capacity=10.0, cost_model=ScanCost(store_cost=1.0))
        inst.enqueue(stores(list(range(100))))
        report = inst.step(0.0, 1.0)
        assert report.n_processed == 10
        assert len(inst.queue) == 90

    def test_idle_capacity_not_banked(self):
        inst = make_instance(capacity=10.0)
        inst.step(0.0, 1.0)  # idle tick — queue empty
        inst.enqueue(stores(list(range(100))))
        report = inst.step(1.0, 1.0)
        assert report.n_processed == 10  # not 20

    def test_overdraft_carries_into_next_tick(self):
        # one probe against a large store exceeds a single tick's budget
        inst = make_instance(capacity=10.0, cost_model=ScanCost(scan_coeff=1.0))
        inst.enqueue(stores(list(range(50))))
        for t in range(10):
            inst.step(float(t), 1.0)
        assert inst.store.total == 50
        inst.enqueue(probes([1]))  # cost ~ 1 + 50 = 51 units, 5+ ticks
        t0 = 10.0
        r = inst.step(t0, 1.0)
        assert r.n_probed == 1  # served in one go (overdraft)...
        # ...but the debt blocks the next ~4 ticks of work
        inst.enqueue(stores([99]))
        blocked_ticks = 0
        t = t0 + 1.0
        while inst.step(t, 1.0).n_processed == 0:
            blocked_ticks += 1
            t += 1.0
            assert blocked_ticks < 20
        assert blocked_ticks >= 3

    def test_future_tuples_not_served(self):
        inst = make_instance()
        inst.enqueue(stores([1], t=100.0))
        report = inst.step(0.0, 1.0)
        assert report.n_processed == 0

    def test_latencies_nonnegative_and_include_queueing(self):
        inst = make_instance(capacity=10.0)
        inst.enqueue(stores(list(range(30)), t=0.0))
        total_lat = []
        for t in range(5):
            r = inst.step(float(t), 1.0)
            total_lat.extend(r.latencies.tolist())
        assert all(l >= 0 for l in total_lat)
        # tuples served later queued longer
        assert total_lat[-1] > total_lat[0]


class TestPause:
    def test_paused_instance_does_no_work(self):
        inst = make_instance()
        inst.enqueue(stores([1]))
        inst.pause_until(5.0)
        assert inst.step(0.0, 1.0).idle
        assert inst.step(4.5, 1.0).idle

    def test_resumes_after_pause(self):
        inst = make_instance()
        inst.enqueue(stores([1]))
        inst.pause_until(2.0)
        assert inst.step(1.0, 1.0).idle
        assert inst.step(2.0, 1.0).n_processed == 1

    def test_queue_accepts_while_paused(self):
        inst = make_instance()
        inst.pause_until(10.0)
        inst.enqueue(stores([1, 2]))
        assert len(inst.queue) == 2


class TestMonitoringHooks:
    def test_snapshot_counters(self):
        inst = make_instance()
        inst.enqueue(stores([1, 1]))
        inst.step(0.0, 1.0)
        inst.enqueue(probes([1, 1, 2]))
        snap = inst.snapshot()
        assert snap.stored == 2
        assert snap.backlog == 3
        assert snap.load == 6.0

    def test_selection_problem_includes_queue_only_keys(self):
        a = make_instance()
        b = JoinInstance(1, capacity=1000.0, backlog_smoothing_tau=0.0)
        a.enqueue(stores([1, 1]))
        a.step(0.0, 1.0)
        a.enqueue(probes([2, 2, 2]))  # key 2 never stored
        prob = a.selection_problem(b)
        keys = prob.keys.tolist()
        assert 1 in keys and 2 in keys
        i2 = keys.index(2)
        assert prob.key_stored[i2] == 0
        assert prob.key_backlog[i2] == 3

    @settings(max_examples=40, deadline=None)
    @given(
        stored=st.lists(KEYS, max_size=40),
        probed=st.lists(KEYS, max_size=40),
    )
    def test_selection_problem_matches_dict_reference(self, stored, probed):
        """The array-built problem equals the one built from per-key dicts."""
        a = make_instance()
        b = JoinInstance(1, capacity=1000.0, backlog_smoothing_tau=0.0)
        a.store.add_batch(np.array(stored, dtype=np.int64))
        if probed:
            a.enqueue(probes(probed))
        prob = a.selection_problem(b)
        s = a.store.counts_snapshot()
        p = a.queue.probe_counts_snapshot()
        keys = sorted(set(s) | set(p))
        assert prob.keys.dtype == prob.key_stored.dtype == np.int64
        assert prob.key_backlog.dtype == np.int64
        assert prob.keys.tolist() == keys
        assert prob.key_stored.tolist() == [s.get(k, 0) for k in keys]
        assert prob.key_backlog.tolist() == [p.get(k, 0) for k in keys]

    def test_extract_and_accept_migration(self):
        src = make_instance()
        dst = JoinInstance(1, capacity=1000.0, backlog_smoothing_tau=0.0)
        src.enqueue(stores([1, 1, 2]))
        src.step(0.0, 1.0)
        src.enqueue(probes([1, 2]))
        counts, queued = src.extract_for_migration({1})
        assert counts == {1: 2}
        assert queued.keys.tolist() == [1]
        dst.accept_migration(counts, queued)
        assert dst.store.count(1) == 2
        assert dst.queue.probe_count(1) == 1
        # source no longer knows key 1
        assert src.store.count(1) == 0
        assert src.queue.probe_count(1) == 0


class TestWindowedInstance:
    def test_windowed_store_used(self):
        inst = make_instance(window_subwindows=2)
        assert isinstance(inst.store, WindowedStore)

    def test_rotate_window(self):
        inst = make_instance(window_subwindows=1)
        inst.enqueue(stores([1, 2]))
        inst.step(0.0, 1.0)
        assert inst.store.total == 2
        assert inst.rotate_window() == 2
        assert inst.store.total == 0

    def test_rotate_unwindowed_raises(self):
        with pytest.raises(ConfigError):
            make_instance().rotate_window()


class TestCostModelInteraction:
    def test_scan_model_slows_down_with_store_growth(self):
        """The mechanism behind the paper's Fig. 1: with the scan model a
        loaded store makes probes expensive; the indexed model does not."""
        def throughput_with(model):
            inst = make_instance(capacity=200.0, cost_model=model)
            inst.enqueue(stores(list(range(100))))
            t = 0.0
            while inst.store.total < 100:
                inst.step(t, 1.0)
                t += 1.0
            inst.enqueue(probes([1] * 50))
            done = 0
            for _ in range(10):
                done += inst.step(t, 1.0).n_probed
                t += 1.0
            return done

        scan = throughput_with(ScanCost(scan_coeff=1.0))
        indexed = throughput_with(IndexedCost())
        assert indexed > scan

"""JoinInstance latency attribution: pause tagging and per-tuple components.

Covers the instance half of DESIGN §5: the tagged pause log
(clip/merge/prune semantics of ``note_pause``), the per-tuple overlap
math (``_pause_overlaps``) and the ``ServiceReport`` component arrays the
step hot path produces.
"""

from __future__ import annotations

import numpy as np

from repro.engine.tuples import Batch
from repro.join.instance import JoinInstance


def _instance(capacity=10_000.0, **kwargs):
    return JoinInstance(0, side="R", capacity=capacity, **kwargs)


class TestNotePause:
    def test_records_interval_with_cause(self):
        inst = _instance()
        inst.note_pause(1.0, 2.0, "migration")
        assert inst._pause_log == [(1.0, 2.0, "migration")]

    def test_overlapping_start_is_clipped_forward(self):
        """A new interval never double-counts time already tagged."""
        inst = _instance()
        inst.note_pause(1.0, 2.0, "migration")
        inst.note_pause(1.5, 3.0, "recovery")
        assert inst._pause_log == [
            (1.0, 2.0, "migration"), (2.0, 3.0, "recovery"),
        ]

    def test_contiguous_same_cause_merges(self):
        inst = _instance()
        inst.note_pause(1.0, 2.0, "migration")
        inst.note_pause(2.0, 3.0, "migration")
        assert inst._pause_log == [(1.0, 3.0, "migration")]

    def test_contiguous_different_cause_stays_separate(self):
        inst = _instance()
        inst.note_pause(1.0, 2.0, "migration")
        inst.note_pause(2.0, 3.0, "recovery")
        assert len(inst._pause_log) == 2

    def test_empty_interval_dropped(self):
        inst = _instance()
        inst.note_pause(2.0, 2.0, "migration")
        inst.note_pause(3.0, 1.0, "recovery")
        assert inst._pause_log == []

    def test_fully_shadowed_interval_dropped(self):
        inst = _instance()
        inst.note_pause(1.0, 5.0, "migration")
        inst.note_pause(2.0, 4.0, "recovery")  # clips to start=5 > end=4
        assert inst._pause_log == [(1.0, 5.0, "migration")]

    def test_log_pruned_against_queue_floor(self):
        """Past the 8-entry bound, intervals ending at or before every
        queued tuple's visible-time are dropped — they can never overlap
        a future service window."""
        inst = _instance()
        # Queue holds tuples visible from t=5.0 onward.
        inst.enqueue(Batch.probes(
            np.array([1, 2], dtype=np.int64), np.array([5.0, 6.0]),
        ))
        for i in range(9):
            inst.note_pause(float(i), float(i) + 0.5, ("migration", "recovery")[i % 2])
        assert all(end > 5.0 for _, end, _ in inst._pause_log)
        assert len(inst._pause_log) < 9

    def test_prune_with_empty_queue_keeps_newest(self):
        inst = _instance()
        for i in range(9):
            inst.note_pause(float(i), float(i) + 0.5, "migration")
        # floor falls back to the newest interval's start: older ones go.
        assert inst._pause_log == [(8.0, 8.5, "migration")]


class TestPauseOverlaps:
    def test_overlap_is_clamped_tail_of_each_interval(self):
        inst = _instance()
        inst.note_pause(1.0, 2.0, "migration")
        inst.note_pause(3.0, 4.0, "recovery")
        taken = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
        mig, rec = inst._pause_overlaps(taken)
        # overlap = max(end - max(arrival, start), 0) per interval
        np.testing.assert_allclose(mig, [1.0, 0.5, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(rec, [1.0, 1.0, 1.0, 0.5, 0.0])

    def test_no_intervals_of_a_cause_returns_none(self):
        inst = _instance()
        inst.note_pause(1.0, 2.0, "migration")
        mig, rec = inst._pause_overlaps(np.array([0.0]))
        assert mig is not None
        assert rec is None


class TestStepComponents:
    def _served(self, inst, now=1.0, dt=1.0):
        rep = inst.step(now, dt)
        assert rep.n_processed > 0
        return rep

    def test_service_component_is_clipped_cost_over_capacity(self):
        inst = _instance(capacity=1_000.0)
        keys = np.arange(50, dtype=np.int64)
        inst.enqueue(Batch.stores(keys, np.zeros(50)))
        rep = self._served(inst)
        assert rep.comp_service is not None
        assert rep.comp_service.shape == rep.latencies.shape
        assert np.all(rep.comp_service >= 0.0)
        # clipped to the measured latency, elementwise
        assert np.all(rep.comp_service <= rep.latencies)

    def test_pause_overlap_lands_in_matching_component(self):
        """Tuples that waited through a tagged pause carry the overlap in
        the matching component, bounded by their measured latency."""
        inst = _instance(capacity=100_000.0)
        inst.enqueue(Batch.probes(
            np.arange(20, dtype=np.int64), np.zeros(20),
        ))
        inst.pause_until(2.0)
        inst.note_pause(0.0, 2.0, "migration")
        assert inst.step(1.0, 0.5).n_processed == 0  # still paused
        rep = inst.step(2.0, 0.5)
        assert rep.n_processed == 20
        assert rep.comp_migration is not None
        assert np.all(rep.comp_migration == 2.0)
        assert np.all(rep.comp_migration <= rep.latencies)

    def test_latency_offset_excluded_from_service_clip(self):
        """The clip runs before the dispatch offset lands, so service
        stays within the queue+service window even with an offset."""
        inst = _instance(capacity=1_000.0, latency_offset=0.25)
        inst.enqueue(Batch.stores(
            np.arange(30, dtype=np.int64), np.zeros(30),
        ))
        rep = self._served(inst)
        assert np.all(rep.comp_service <= rep.latencies)


class TestQueueEarliestTime:
    def test_empty_queue_returns_none(self):
        inst = _instance()
        assert inst.queue.earliest_time() is None

    def test_minimum_visible_time(self):
        inst = _instance()
        inst.enqueue(Batch.probes(
            np.array([1, 2, 3], dtype=np.int64), np.array([3.0, 1.5, 2.0]),
        ))
        assert inst.queue.earliest_time() == 1.5

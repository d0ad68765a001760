"""Tests for the migration executor (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.migration import MigrationCostModel, MigrationExecutor
from repro.core.routing import RoutingTable
from repro.core.selection import GreedyFit
from repro.engine.tuples import Batch
from repro.errors import ConfigError, MigrationError, ValidationError
from repro.join.instance import JoinInstance


def stores(keys, t=0.0):
    keys = np.asarray(keys, dtype=np.int64)
    return Batch.stores(keys, np.full(keys.shape[0], t))


def probes(keys, t=0.0):
    keys = np.asarray(keys, dtype=np.int64)
    return Batch.probes(keys, np.full(keys.shape[0], t))


def loaded_pair():
    """Source with a skewed store + backlog; near-empty target."""
    src = JoinInstance(0, capacity=1e6, backlog_smoothing_tau=0.0)
    dst = JoinInstance(1, capacity=1e6, backlog_smoothing_tau=0.0)
    src.enqueue(stores([1] * 50 + [2] * 30 + [3] * 20))
    src.step(0.0, 1.0)
    src.enqueue(probes([1] * 40 + [2] * 10))
    dst.enqueue(stores([9]))
    dst.step(0.0, 1.0)
    dst.enqueue(probes([9]))
    return src, dst


class TestMigrationCostModel:
    def test_monotone_in_tuples(self):
        m = MigrationCostModel()
        assert m.duration(10, 1000) > m.duration(10, 10)

    def test_monotone_in_keys(self):
        m = MigrationCostModel()
        assert m.duration(1000, 10) > m.duration(10, 10)

    def test_fixed_floor(self):
        m = MigrationCostModel(fixed=0.5)
        assert m.duration(0, 0) >= 0.5

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            MigrationCostModel().duration(-1, 0)

    def test_typical_migration_subsecond(self):
        """Fig. 11: 'the procedure is less than one second' — the default
        cost model keeps bench-scale migrations under a second."""
        m = MigrationCostModel()
        assert m.duration(n_keys_considered=2000, n_tuples_moved=50_000) < 1.0


class TestMigrationExecutor:
    def test_moves_tuples_and_installs_routing(self):
        src, dst = loaded_pair()
        routing = RoutingTable(2)
        ex = MigrationExecutor(routing)
        event = ex.execute(10.0, "R", src, dst, GreedyFit(), li_before=5.0)
        assert event is not None
        assert event.n_keys >= 1
        for k in routing.overrides_snapshot():
            assert routing.target_of(k) == 1
            assert src.store.count(k) == 0
        # total tuples conserved
        assert src.store.total + dst.store.total == 100 + 1

    def test_source_paused_for_duration(self):
        src, dst = loaded_pair()
        ex = MigrationExecutor(RoutingTable(2))
        event = ex.execute(10.0, "R", src, dst, GreedyFit(), li_before=5.0)
        assert event is not None
        assert src.paused
        # a step before the pause expires does nothing
        assert src.step(10.0, 0.001).idle

    def test_forwarded_tuples_delayed_until_transfer_done(self):
        src, dst = loaded_pair()
        ex = MigrationExecutor(RoutingTable(2))
        event = ex.execute(10.0, "R", src, dst, GreedyFit(), li_before=5.0)
        assert event is not None
        batch = dst.queue.peek_visible(np.inf)
        forwarded = batch.times[batch.times > 10.0]
        if forwarded.size:
            assert np.all(forwarded >= 10.0 + event.duration - 1e-12)

    def test_same_instance_rejected(self):
        src, _ = loaded_pair()
        ex = MigrationExecutor(RoutingTable(2))
        with pytest.raises(MigrationError):
            ex.execute(0.0, "R", src, src, GreedyFit(), li_before=2.0)

    def test_empty_selection_returns_none(self):
        # balanced pair: selector declines
        a = JoinInstance(0, capacity=1e6, backlog_smoothing_tau=0.0)
        b = JoinInstance(1, capacity=1e6, backlog_smoothing_tau=0.0)
        a.enqueue(stores([1]))
        a.step(0.0, 1.0)
        ex = MigrationExecutor(RoutingTable(2))
        assert ex.execute(0.0, "R", a, b, GreedyFit(), li_before=1.0) is None

    def test_li_after_estimate_not_worse(self):
        src, dst = loaded_pair()
        ex = MigrationExecutor(RoutingTable(2))
        li_before = 100.0
        event = ex.execute(10.0, "R", src, dst, GreedyFit(), li_before=li_before)
        assert event is not None
        assert event.li_after_estimate <= li_before

    def test_event_records_counts(self):
        src, dst = loaded_pair()
        before_src = src.store.total
        ex = MigrationExecutor(RoutingTable(2))
        event = ex.execute(10.0, "R", src, dst, GreedyFit(), li_before=5.0)
        assert event is not None
        moved_stored = before_src - src.store.total
        assert event.n_tuples >= moved_stored


class TestMigrationEdgeCases:
    """Edge cases surfaced by the validation layer (repro.validate)."""

    def test_empty_selection_leaves_routing_untouched(self):
        a = JoinInstance(0, capacity=1e6, backlog_smoothing_tau=0.0)
        b = JoinInstance(1, capacity=1e6, backlog_smoothing_tau=0.0)
        a.enqueue(stores([1]))
        a.step(0.0, 1.0)
        routing = RoutingTable(2)
        version_before = routing.version
        ex = MigrationExecutor(routing)
        assert ex.execute(0.0, "R", a, b, GreedyFit(), li_before=1.0) is None
        assert routing.n_overrides == 0
        assert routing.version == version_before

    def test_negative_tuple_count_rejected(self):
        with pytest.raises(ConfigError):
            MigrationCostModel().duration(0, -1)
        with pytest.raises(ConfigError):
            MigrationCostModel().duration(-1, -1)

    def test_pause_equals_cost_model_duration(self):
        src, dst = loaded_pair()
        ex = MigrationExecutor(RoutingTable(2))
        now = 10.0
        event = ex.execute(now, "R", src, dst, GreedyFit(), li_before=5.0)
        assert event is not None
        assert src._paused_until == pytest.approx(now + event.duration)
        # and the event's duration is the cost model's, not an ad-hoc value
        moved = event.n_tuples
        problem_keys = event.n_keys
        # n_keys_considered is the whole candidate set, not just selected
        assert event.duration >= ex.cost_model.duration(problem_keys, moved)

    def test_event_records_selected_keys(self):
        src, dst = loaded_pair()
        routing = RoutingTable(2)
        ex = MigrationExecutor(routing)
        event = ex.execute(10.0, "R", src, dst, GreedyFit(), li_before=5.0)
        assert event is not None
        assert event.keys == tuple(sorted(routing.overrides_snapshot()))
        assert len(event.keys) == event.n_keys


class TestRollbackCheck:
    """The transfer-abort rollback re-reads the rolled-back keys' counts."""

    def _rollback(self, source, stored_counts):
        MigrationExecutor(RoutingTable(2))._rollback(
            "R", source, set(stored_counts), stored_counts,
            probes([]), 0.0,
        )

    def test_clean_rollback_restores_counts(self):
        src, _ = loaded_pair()
        removed = src.store.remove_keys({1, 3})
        self._rollback(src, removed)
        assert src.store.count(1) == 50 and src.store.count(3) == 20

    def test_leftover_counts_raise_replayable_error(self):
        src, _ = loaded_pair()
        src.store.add(-7, 2)
        src.store.remove_keys({1})
        # keys 2 and -7 were never extracted: the merge doubles them
        with pytest.raises(ValidationError) as exc_info:
            self._rollback(src, {1: 50, 2: 30, -7: 2})
        exc = exc_info.value
        assert exc.invariant == "migration-abort"
        assert "2 key(s)" in str(exc)
        assert "2: (60, 30)" in str(exc) and "-7: (4, 2)" in str(exc)
        assert exc.context["n_keys"] == 3

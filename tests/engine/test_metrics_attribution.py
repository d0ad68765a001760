"""MetricsCollector latency-attribution accounting (DESIGN §5).

The collector maintains, per second, the standing identity::

    fsum(queue_wait, service, migration_pause, recovery_pause) == lat_sum

re-closed after every recorded tick, and ``finalize`` closes the same
identity again at the per-tuple-mean level (division by the bin count
does not distribute over float addition, so the mean series gets its own
residual).  These tests drive the collector directly with synthetic
reports and check both levels, plus the batched/scalar equivalence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attribution import reconstruct
from repro.engine.columns import R_TAKE
from repro.engine.metrics import MetricsCollector
from repro.join.instance import ServiceReport


def _report(rng, n, with_comps=True):
    latencies = rng.uniform(0.01, 2.0, size=n)
    comp_service = comp_migration = comp_recovery = None
    if with_comps:
        comp_service = latencies * rng.uniform(0.1, 0.6, size=n)
        comp_migration = latencies * rng.uniform(0.0, 0.2, size=n)
        comp_recovery = latencies * rng.uniform(0.0, 0.1, size=n)
    return ServiceReport(
        n_processed=n,
        n_probed=n,
        n_results=float(n),
        latencies=latencies,
        comp_service=comp_service,
        comp_migration=comp_migration,
        comp_recovery=comp_recovery,
    )


def _assert_sums_closed(collector):
    sums = collector.component_sums()
    for sec, total in sums["latency"].items():
        recon = reconstruct(
            sums["queue_wait"].get(sec, 0.0),
            sums["service"].get(sec, 0.0),
            sums["migration_pause"].get(sec, 0.0),
            sums["recovery_pause"].get(sec, 0.0),
        )
        assert recon == total, f"second {sec}: {recon!r} != {total!r}"


class TestPerSecondSums:
    def test_identity_closed_after_every_record(self):
        rng = np.random.default_rng(1)
        collector = MetricsCollector()
        for i in range(40):
            rep = _report(rng, int(rng.integers(1, 50)))
            collector.record_service(
                0.1 * i, rep.n_processed, rep.n_results, rep.latencies,
                comp_service=rep.comp_service,
                comp_migration=rep.comp_migration,
                comp_recovery=rep.comp_recovery,
            )
            _assert_sums_closed(collector)

    def test_missing_components_fall_into_queue_wait(self):
        """Reports without comp_* arrays keep the identity trivially
        exact: the residual absorbs the whole latency sum."""
        rng = np.random.default_rng(2)
        collector = MetricsCollector()
        rep = _report(rng, 10, with_comps=False)
        collector.record_service(0.5, 10, 10.0, rep.latencies)
        sums = collector.component_sums()
        assert sums["queue_wait"][0] == sums["latency"][0]
        assert sums["service"].get(0, 0.0) == 0.0
        _assert_sums_closed(collector)

    def test_record_service_many_matches_scalar_sequence(self):
        """One batched call per tick must leave the same per-second sums
        and counters as one record_service call per report, in order."""
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        batched = MetricsCollector(warmup=0.5)
        scalar = MetricsCollector(warmup=0.5)
        for tick in range(12):
            now = 0.1 * (tick + 1)
            reports = [
                _report(rng_a, int(rng_a.integers(1, 30))) for _ in range(4)
            ]
            reports_b = [
                _report(rng_b, int(rng_b.integers(1, 30))) for _ in range(4)
            ]
            _, _, sv, mg, rc = batched.record_service_many(now, reports)
            for rep in reports_b:
                scalar.record_service(
                    now, rep.n_processed, rep.n_results, rep.latencies,
                    comp_service=rep.comp_service,
                    comp_migration=rep.comp_migration,
                    comp_recovery=rep.comp_recovery,
                )
            assert sv == sum(float(r.comp_service.sum()) for r in reports)
            assert mg == sum(float(r.comp_migration.sum()) for r in reports)
            assert rc == sum(float(r.comp_recovery.sum()) for r in reports)
        a, b = batched.component_sums(), scalar.component_sums()
        for name in ("latency", "service", "migration_pause",
                     "recovery_pause", "queue_wait"):
            assert a[name] == b[name], name
        ma, mb = batched.finalize(), scalar.finalize()
        assert ma.total_processed == mb.total_processed
        assert ma.total_results == mb.total_results
        assert ma.latency_p99 == mb.latency_p99
        np.testing.assert_array_equal(ma.latency_mean, mb.latency_mean)


class TestFusedFold:
    """``record_service_many`` over a service table's report block must
    equal the per-report fold of the same pass bit for bit, on the C fold
    and on its Python twin."""

    @staticmethod
    def _instances(seed, numpy):
        from repro.engine.cost import IndexedCost, ScanCost
        from repro.join.instance import JoinInstance

        if numpy:
            # subclasses: kernel selection is an exact type check, so the
            # table serves (and folds) on the numpy reference
            class ScanCost(ScanCost):
                pass

            class IndexedCost(IndexedCost):
                pass

        rng = np.random.default_rng(seed)
        insts = []
        for i in range(5):
            cost = ScanCost() if i % 2 else IndexedCost(emit_cost=0.05)
            inst = JoinInstance(
                i, capacity=float(rng.uniform(300, 3000)), cost_model=cost,
                window_subwindows=3 if i == 4 else None,
                latency_offset=0.01 * (i % 3),
            )
            if i in (1, 3):
                # pause logs: overlapping and non-overlapping intervals
                inst.note_pause(1.05, 1.3 + 0.1 * i, "migration")
                inst.note_pause(1.3 + 0.1 * i, 1.7, "recovery")
            insts.append(inst)
        # Zero sums: stores served before they arrive (latency and
        # service clip to 0, no results), past a pause that ended before
        # them (all-zero overlaps once a hand-off disorders the queue).
        zero = JoinInstance(5, capacity=1e12, cost_model=IndexedCost())
        zero.note_pause(0.0, 0.01, "migration")
        insts.append(zero)
        return insts, rng

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fused_fold_equals_per_report_fold(self, seed):
        """On the fold the process has: C when the kernels are built."""
        self._check(seed, python_fold=False)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_python_fold_equals_per_report_fold(self, seed):
        """The fold's Python twin, on a table served by the numpy
        reference."""
        self._check(seed, python_fold=True)

    def _check(self, seed, python_fold):
        from repro.engine.tuples import OP_PROBE, OP_STORE, Batch
        from repro.join.service import ServiceTable

        insts, rng = self._instances(seed, numpy=python_fold)
        table = ServiceTable(insts)
        if python_fold:
            assert table.kernel == "numpy"
        fused = MetricsCollector(warmup=0.4, reservoir_seed=seed)
        per_report = MetricsCollector(warmup=0.4, reservoir_seed=seed)
        dt = 0.05
        folds = 0
        for tick in range(40):
            now = tick * dt
            # the zero instance alone serves the first second
            for inst in insts[-1:] if now < 1.0 else insts:
                if inst is insts[-1]:
                    inst.queue.push_block(
                        rng.integers(0, 30, 4).astype(np.int64),
                        now + 0.045, OP_STORE,
                    )
                    if tick == 3:
                        inst.queue.push(Batch(
                            keys=np.array([1, 2]),
                            times=np.array([now + 0.04, now + 0.03]),
                            ops=np.full(2, OP_STORE, dtype=np.int8),
                        ))
                    continue
                if rng.random() < 0.6:
                    n = int(rng.integers(1, 40))
                    op = OP_STORE if rng.random() < 0.4 else OP_PROBE
                    inst.queue.push_block(
                        rng.integers(0, 30, n).astype(np.int64),
                        now + float(rng.uniform(-0.1, 0.06)), op,
                    )
                if rng.random() < 0.1:
                    # a migration hand-off: out of order, arbitrary times
                    k = int(rng.integers(1, 10))
                    inst.queue.push(Batch(
                        keys=rng.integers(0, 30, k),
                        times=now - rng.uniform(0.0, 0.5, k),
                        ops=np.full(k, OP_PROBE, dtype=np.int8),
                    ))
            if not table.run(now, dt):
                continue
            end = now + dt
            reports = [
                table.report(slot)
                for slot in np.flatnonzero(table.rep_i[R_TAKE] > 0).tolist()
            ]
            got = per_report.record_service_many(end, reports)
            assert fused.record_service_many(end, table) == got
            folds += 1
        assert folds > 20
        a, b = fused.component_sums(), per_report.component_sums()
        # the first second saw only zero sums: latency but no other key
        assert 0 in a["latency"] and a["latency"][0] == 0.0
        assert 0 not in fused._results
        for name in ("service", "migration_pause", "recovery_pause"):
            assert 0 not in a[name], name
        for name in ("latency", "queue_wait", "service", "migration_pause",
                     "recovery_pause"):
            # identical keys (a zero sum creates none) and identical bits
            assert a[name] == b[name], name
            assert list(a[name]) == list(b[name]), name
        assert b["migration_pause"] and b["recovery_pause"]
        for attr in ("_results", "_processed", "_lat_cnt", "_total_results",
                     "_total_processed", "_lat_total", "_lat_total_n",
                     "_comp_total_service", "_comp_total_migration",
                     "_comp_total_recovery"):
            assert getattr(fused, attr) == getattr(per_report, attr), attr
        np.testing.assert_array_equal(
            fused._reservoir.values(), per_report._reservoir.values()
        )


class TestFinalize:
    @pytest.fixture
    def metrics(self):
        rng = np.random.default_rng(4)
        collector = MetricsCollector(warmup=1.0)
        for tick in range(80):
            now = 0.1 * (tick + 1)
            collector.record_service_many(
                now, [_report(rng, int(rng.integers(1, 40)))]
            )
        return collector.finalize()

    def test_mean_level_identity_is_bit_exact(self, metrics):
        comps = metrics.components()
        finite = np.isfinite(metrics.latency_mean)
        assert finite.any()
        for i in np.nonzero(finite)[0].tolist():
            recon = reconstruct(
                float(comps["queue_wait"][i]),
                float(comps["service"][i]),
                float(comps["migration_pause"][i]),
                float(comps["recovery_pause"][i]),
            )
            assert recon == float(metrics.latency_mean[i])

    def test_component_series_nan_aligned_with_latency(self, metrics):
        nan_mask = np.isnan(metrics.latency_mean)
        for series in metrics.components().values():
            assert series.shape == metrics.latency_mean.shape
            np.testing.assert_array_equal(np.isnan(series), nan_mask)

    def test_measured_components_nonnegative(self, metrics):
        for name in ("service", "migration_pause", "recovery_pause"):
            series = metrics.components()[name]
            assert np.all(series[np.isfinite(series)] >= 0.0)

    def test_component_totals_close_against_latency_sum(self, metrics):
        totals = metrics.component_totals
        assert totals["count"] > 0
        assert reconstruct(
            totals["queue_wait"], totals["service"],
            totals["migration_pause"], totals["recovery_pause"],
        ) == totals["latency_sum"]

    def test_empty_run_has_zero_totals(self):
        metrics = MetricsCollector().finalize()
        totals = metrics.component_totals
        assert totals["count"] == 0.0
        assert totals["queue_wait"] == 0.0

"""Unit tests for the hot-path benchmark harness (repro.bench.perf)."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.perf import (
    BENCH_CASES,
    BenchCase,
    bench_cases,
    compare_reports,
    format_report,
    load_report,
    machine_metadata,
    run_case,
    run_matrix,
    write_report,
)
from repro.errors import ParallelError


def _tiny_case(system: str = "bistream", workload: str = "ridehailing",
               seed: int = 3) -> BenchCase:
    return BenchCase(
        name=f"tiny/{system}/s{seed}", system=system, workload=workload,
        # duration must clear the canonical 2 s warmup or every latency
        # percentile is NaN (and NaN != NaN would poison the assertions)
        n_instances=2, duration=3.0, rate=2_000.0, seed=seed,
    )


class TestMatrix:
    def test_matrix_names_unique(self):
        names = [c.name for c in BENCH_CASES]
        assert len(names) == len(set(names))

    def test_quick_subset_nonempty_and_proper(self):
        quick = bench_cases(quick=True)
        assert quick
        assert set(quick) < set(bench_cases())

    def test_quick_cases_share_full_matrix_configs(self):
        """Quick cases are the same cells, so their numbers are directly
        comparable against the committed full baseline."""
        full_by_name = {c.name: c for c in bench_cases()}
        for case in bench_cases(quick=True):
            assert full_by_name[case.name] == case

    def test_fig1_cases_cover_all_three_systems(self):
        systems = {c.system for c in BENCH_CASES if c.name.startswith("fig1")}
        assert systems == {"bistream", "contrand", "fastjoin"}


class TestRunCase:
    def test_measures_and_reports(self):
        res = run_case(_tiny_case(), repeats=1)
        assert res.wall_seconds > 0
        assert res.tuples_per_sec > 0
        assert res.total_processed > 0
        d = res.to_dict()
        assert d["name"] == "tiny/bistream/s3"
        assert d["total_processed"] == res.total_processed

    def test_repeats_keep_deterministic_metrics(self):
        a = run_case(_tiny_case(), repeats=1)
        b = run_case(_tiny_case(), repeats=2)
        assert a.total_processed == b.total_processed
        assert a.total_results == b.total_results
        assert a.latency_p99 == b.latency_p99

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError):
            run_case(_tiny_case(), repeats=0)


def _report_with(case_dict: dict) -> dict:
    return {"schema": 1, "quick": False, "machine": machine_metadata(),
            "cases": [case_dict]}


def _case_dict(**over) -> dict:
    base = {
        "name": "fig1-skew/bistream/16",
        "wall_seconds": 1.0,
        "tuples_per_sec": 1_000_000.0,
        "total_processed": 100,
        "total_results": 200,
        "migrations": 3,
        "latency_p50": 0.5,
        "latency_p99": 1.5,
        "mean_throughput": 123.0,
    }
    base.update(over)
    return base


class TestCompareReports:
    def test_identical_reports_pass(self):
        rep = _report_with(_case_dict())
        cmp = compare_reports(rep, copy.deepcopy(rep))
        assert cmp.ok
        assert not cmp.failures

    def test_small_slowdown_within_tolerance(self):
        fresh = _report_with(_case_dict(tuples_per_sec=850_000.0))
        base = _report_with(_case_dict())
        assert compare_reports(fresh, base, tolerance=0.20).ok

    def test_large_slowdown_fails(self):
        fresh = _report_with(_case_dict(tuples_per_sec=700_000.0))
        base = _report_with(_case_dict())
        cmp = compare_reports(fresh, base, tolerance=0.20)
        assert not cmp.ok
        assert "REGRESSION" in " ".join(cmp.lines)

    def test_speedup_always_passes(self):
        fresh = _report_with(_case_dict(tuples_per_sec=9_999_999.0))
        base = _report_with(_case_dict())
        assert compare_reports(fresh, base).ok

    def test_deterministic_drift_fails_even_when_faster(self):
        fresh = _report_with(
            _case_dict(tuples_per_sec=9_999_999.0, total_results=201)
        )
        base = _report_with(_case_dict())
        cmp = compare_reports(fresh, base)
        assert not cmp.ok
        assert any("total_results" in f for f in cmp.failures)

    def test_float_metric_drift_fails(self):
        fresh = _report_with(_case_dict(latency_p99=1.5000001))
        base = _report_with(_case_dict())
        cmp = compare_reports(fresh, base)
        assert not cmp.ok
        assert any("latency_p99" in f for f in cmp.failures)

    def test_unknown_case_warns_not_fails(self):
        fresh = _report_with(_case_dict(name="brand-new/case"))
        base = _report_with(_case_dict())
        cmp = compare_reports(fresh, base)
        assert cmp.ok
        assert cmp.warnings

    def test_parallel_run_demotes_wall_regression_to_warning(self):
        """Wall baselines are serial by contract: a jobs>1 report's
        workers share cores, so its wall slowdown is a warning, not a
        failure."""
        fresh = _report_with(_case_dict(tuples_per_sec=400_000.0))
        fresh["jobs"] = 2
        base = _report_with(_case_dict())
        cmp = compare_reports(fresh, base, tolerance=0.20)
        assert cmp.ok
        assert any("wall baselines are serial" in w for w in cmp.warnings)
        assert "wall not checked" in " ".join(cmp.lines)

    def test_parallel_run_still_fails_on_deterministic_drift(self):
        fresh = _report_with(_case_dict(total_results=201))
        fresh["jobs"] = 4
        base = _report_with(_case_dict())
        cmp = compare_reports(fresh, base)
        assert not cmp.ok
        assert any("total_results" in f for f in cmp.failures)


def _deterministic_cases(report: dict) -> list[dict]:
    """Strip the wall-clock fields; everything left must be bit-identical
    across ``jobs`` values."""
    return [
        {k: v for k, v in case.items()
         if k not in ("wall_seconds", "tuples_per_sec")}
        for case in report["cases"]
    ]


class TestParallelMatrix:
    """The determinism contract: ``run_matrix(jobs=k)`` == serial."""

    @settings(max_examples=5, deadline=None)
    @given(
        picks=st.lists(
            st.tuples(
                st.sampled_from(["bistream", "contrand", "fastjoin"]),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1, max_size=3, unique=True,
        ),
        jobs=st.integers(min_value=1, max_value=4),
    )
    def test_any_jobs_value_matches_serial(self, picks, jobs):
        cases = tuple(_tiny_case(system=s, seed=seed) for s, seed in picks)
        serial = run_matrix(cases=cases, repeats=1, jobs=1)
        fanned = run_matrix(cases=cases, repeats=1, jobs=jobs)
        assert _deterministic_cases(fanned) == _deterministic_cases(serial)

    def test_parallel_repeats_match_serial_protocol(self):
        cases = (_tiny_case(), _tiny_case(system="fastjoin"))
        serial = run_matrix(cases=cases, repeats=2, jobs=1)
        fanned = run_matrix(cases=cases, repeats=2, jobs=2)
        assert _deterministic_cases(fanned) == _deterministic_cases(serial)

    def test_report_records_jobs_and_cpu_count(self):
        # two (case, repeat) units, so the requested width is not clamped
        report = run_matrix(cases=(_tiny_case(),), repeats=2, jobs=2)
        assert report["jobs"] == 2
        assert report["machine"]["cpu_count"] >= 1
        # a pool wider than the work is clamped down
        clamped = run_matrix(cases=(_tiny_case(),), repeats=1, jobs=4)
        assert clamped["jobs"] == 1

    def test_progress_announces_each_case_once(self):
        cases = (_tiny_case(), _tiny_case(system="fastjoin"))
        announced: list[str] = []
        run_matrix(cases=cases, repeats=2, jobs=2,
                   progress=lambda c: announced.append(c.name))
        assert announced == [c.name for c in cases]

    def test_worker_failure_names_cell_and_seed(self):
        bad = BenchCase(
            name="tiny/broken", system="nosuchsystem", workload="ridehailing",
            n_instances=2, duration=2.0, rate=1_000.0, seed=11,
        )
        with pytest.raises(ParallelError) as excinfo:
            run_matrix(cases=(_tiny_case(), bad), repeats=1, jobs=2)
        message = str(excinfo.value)
        assert "tiny/broken" in message
        assert "replay seed 11" in message
        assert "--jobs 1" in message

    def test_bad_jobs_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_matrix(cases=(_tiny_case(),), repeats=1, jobs=0)

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError):
            run_matrix(cases=(_tiny_case(),), repeats=0)


class TestReportIO:
    def test_roundtrip(self, tmp_path):
        rep = _report_with(_case_dict())
        path = tmp_path / "bench.json"
        write_report(rep, str(path))
        assert load_report(str(path)) == rep

    def test_format_report_mentions_every_case(self):
        rep = _report_with(_case_dict())
        text = format_report(rep)
        assert "fig1-skew/bistream/16" in text
        assert "hot-path bench" in text

    def test_machine_metadata_fields(self):
        meta = machine_metadata()
        assert {"python", "numpy", "platform", "machine"} <= set(meta)

    def test_machine_metadata_records_kernels_and_shards(self, monkeypatch):
        from repro.engine import ckernels
        from repro.engine.shard import effective_shards

        meta = machine_metadata()
        assert meta["ckernels"] is ckernels.available()
        assert meta["shards"] == 1
        assert machine_metadata(4)["shards"] == effective_shards(4)[0]
        monkeypatch.setenv("REPRO_NO_CKERNELS", "1")
        assert machine_metadata()["ckernels_disabled"] is True
        monkeypatch.delenv("REPRO_NO_CKERNELS")
        assert machine_metadata()["ckernels_disabled"] is False


class TestRunProfile:
    def test_profiles_each_case_with_alloc(self):
        from repro.bench.perf import run_profile

        case = _tiny_case()
        seen = []
        out = run_profile(cases=(case,), alloc=True, progress=seen.append)
        assert seen == [case]
        entry = out[case.name]
        phases = entry["phases"]
        assert "service" in phases and "dispatch" in phases
        assert phases["service"]["wall_s"] > 0
        assert phases["service"]["work_units"] > 0
        # tracemalloc was live: the phases carry allocation attribution
        assert phases["dispatch"]["alloc_bytes"] > 0
        assert "alloc B" in entry["_profiler"].summary()

    def test_alloc_tracking_can_be_disabled(self):
        from repro.bench.perf import run_profile

        case = _tiny_case(system="fastjoin")
        out = run_profile(cases=(case,), alloc=False)
        phases = out[case.name]["phases"]
        assert all(p["alloc_bytes"] == 0 for p in phases.values())

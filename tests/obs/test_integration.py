"""End-to-end observability: trace a skewed run, replay it, cross-check.

One module-scoped traced FastJoin run on a skewed Zipf group (G21) feeds
every test here: the trace must reconstruct complete migration spans and
per-second series that match the run's own :class:`RunMetrics` — the
acceptance bar for the whole layer.
"""

import os

import numpy as np
import pytest

from repro.bench.experiments import canonical_config, run_synthetic_group
from repro.engine import ckernels
from repro.obs import Observability
from repro.obs.events import MIGRATION_PHASES, active_trace
from repro.obs.inspect import build_report, read_events, render_report


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """(ExperimentResult, Observability, trace path) of one traced run."""
    path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
    obs = Observability.create(jsonl_path=path)
    config = canonical_config(n_instances=4, theta=2.2, seed=0, warmup=2.0)
    result = run_synthetic_group(
        "fastjoin", "G21", config, rate=1_500.0, duration=10.0, obs=obs
    )
    obs.close()
    return result, obs, path


@pytest.fixture(scope="module")
def report(traced_run):
    _, _, path = traced_run
    return build_report(read_events(path))


class TestTraceContents:
    def test_trace_has_all_runtime_kinds(self, report):
        for kind in ("run_meta", "tick", "dispatch", "service", "li_sample",
                     "span"):
            assert report.kind_counts.get(kind, 0) > 0, kind

    def test_meta_labels_the_run(self, report):
        assert report.meta["system"] == "fastjoin"
        assert report.meta["workload"] == "G21"
        assert report.meta["seed"] == 0

    def test_meta_records_the_kernel_path(self, report):
        assert report.meta["ckernels"] is ckernels.available()
        assert report.meta["ckernels_disabled"] is bool(
            os.environ.get("REPRO_NO_CKERNELS")
        )

    def test_close_detaches_active_trace(self, traced_run):
        assert active_trace() is None


class TestMigrationSpans:
    def test_at_least_one_complete_span(self, traced_run, report):
        result, _, _ = traced_run
        assert result.n_migrations >= 1  # the workload must actually skew
        assert len(report.complete_spans) >= 1

    def test_every_span_is_complete_and_monotone(self, report):
        for span in report.spans:
            assert tuple(p for p, _, _ in span.phases) == MIGRATION_PHASES
            assert span.monotone

    def test_span_count_matches_metrics(self, traced_run, report):
        result, _, _ = traced_run
        assert len(report.spans) == result.n_migrations

    def test_span_duration_matches_migration_event(self, traced_run, report):
        result, _, _ = traced_run
        for span, event in zip(report.spans, result.metrics.migrations):
            assert span.start == pytest.approx(event.time)
            assert span.duration == pytest.approx(event.duration)
            assert span.n_tuples == event.n_tuples


class TestSeriesMatchRunMetrics:
    """The trace's per-second series must equal the run's RunMetrics."""

    def test_throughput_series(self, traced_run, report):
        result, _, _ = traced_run
        assert report.throughput.shape == result.metrics.throughput.shape
        np.testing.assert_allclose(
            report.throughput, result.metrics.throughput, rtol=1e-9
        )

    def test_processed_series(self, traced_run, report):
        result, _, _ = traced_run
        np.testing.assert_allclose(
            report.processed, result.metrics.processed, rtol=1e-9
        )

    def test_latency_series(self, traced_run, report):
        result, _, _ = traced_run
        ours, theirs = report.latency_mean, result.metrics.latency_mean
        assert ours.shape == theirs.shape
        np.testing.assert_array_equal(np.isnan(ours), np.isnan(theirs))
        mask = np.isfinite(ours)
        np.testing.assert_allclose(ours[mask], theirs[mask], rtol=1e-9)

    def test_li_series(self, traced_run, report):
        result, _, _ = traced_run
        assert set(report.li) == set(result.metrics.li)
        for side, theirs in result.metrics.li.items():
            ours = report.li[side]
            assert ours.shape == theirs.shape
            mask = np.isfinite(theirs)
            np.testing.assert_array_equal(np.isfinite(ours), mask)
            np.testing.assert_allclose(ours[mask], theirs[mask], rtol=1e-9)

    def test_totals_match_series_sums(self, traced_run, report):
        result, _, _ = traced_run
        assert report.throughput.sum() == pytest.approx(
            result.metrics.total_results
        )
        assert report.processed.sum() == pytest.approx(
            result.metrics.total_processed
        )


class TestRegistryAndProfiler:
    def test_registry_totals_match_metrics(self, traced_run):
        result, obs, _ = traced_run
        blob = obs.registry.to_json()
        results = blob["repro_results_total"]["samples"][0]["value"]
        processed = blob["repro_processed_total"]["samples"][0]["value"]
        assert results == pytest.approx(result.metrics.total_results)
        assert processed == pytest.approx(result.metrics.total_processed)

    def test_registry_migration_counters(self, traced_run):
        result, obs, _ = traced_run
        blob = obs.registry.to_json()
        n = sum(
            s["value"] for s in blob["repro_migrations_total"]["samples"]
        )
        assert n == result.n_migrations

    def test_prometheus_export_nonempty(self, traced_run):
        _, obs, _ = traced_run
        text = obs.registry.to_prometheus()
        assert "# TYPE repro_results_total counter" in text
        assert "repro_latency_seconds_bucket" in text

    def test_profiler_attributed_all_phases(self, traced_run):
        _, obs, _ = traced_run
        report = obs.profiler.report()
        for phase in ("dispatch", "service", "monitor", "migrate"):
            assert phase in report, phase
            assert report[phase]["wall_s"] >= 0.0
        assert report["service"]["work_units"] > 0
        assert report["migrate"]["calls"] >= 1


class TestCliRoundTrip:
    def test_inspect_renders_the_trace(self, traced_run, capsys):
        from repro.cli import main

        _, _, path = traced_run
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "migration spans" in out
        assert "per-second series" in out

    def test_render_report_mentions_complete_spans(self, report):
        text = render_report(report)
        n = len(report.complete_spans)
        assert f"{n} complete" in text

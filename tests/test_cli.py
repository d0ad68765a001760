"""Tests for the command-line interface."""

from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_minimal_args(self):
        args = build_parser().parse_args(["fastjoin"])
        assert args.system == "fastjoin"
        assert args.workload == "ridehailing"

    def test_compare_mode(self):
        args = build_parser().parse_args(["compare", "--duration", "5"])
        assert args.system == "compare"
        assert args.duration == 5.0

    def test_synthetic_workload(self):
        args = build_parser().parse_args(["bistream", "--workload", "G12"])
        assert args.workload == "G12"

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sparkstreaming"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fastjoin", "--workload", "G99"])

    def test_selector_choice(self):
        args = build_parser().parse_args(["fastjoin", "--selector", "safit"])
        assert args.selector == "safit"

    def test_jobs_flag(self):
        args = build_parser().parse_args(["compare", "--jobs", "4"])
        assert args.jobs == 4
        assert build_parser().parse_args(["compare"]).jobs is None

    def test_fuzz_flag(self):
        args = build_parser().parse_args(["validate", "--fuzz", "8"])
        assert args.fuzz == 8


class TestHelp:
    """Every subcommand must answer ``--help`` with exit code 0."""

    @pytest.mark.parametrize("sub", [
        [],
        ["run"], ["fastjoin"], ["compare"],
        ["validate"], ["bench"], ["inspect"],
    ])
    def test_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([*sub, "--help"])
        assert exc_info.value.code == 0
        assert "usage" in capsys.readouterr().out


class TestArgHygiene:
    def test_jobs_below_one_is_exit_2(self, capsys):
        assert main(["bench", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert main(["compare", "--jobs", "-3"]) == 2

    def test_repeats_below_one_is_exit_2(self, capsys):
        assert main(["bench", "--repeats", "0"]) == 2
        assert "--repeats must be >= 1" in capsys.readouterr().err

    def test_fuzz_below_one_is_exit_2(self, capsys):
        assert main(["validate", "--fuzz", "0"]) == 2
        assert "--fuzz must be >= 1" in capsys.readouterr().err

    def test_malformed_faults_is_exit_2(self, capsys):
        assert main(["run", "--faults", "bogus"]) == 2
        assert "--faults:" in capsys.readouterr().err
        assert main(["run", "--faults", "crash:R0@4"]) == 2
        assert main(["validate", "--faults", "ckpt=0"]) == 2

    def test_faults_rejected_by_bench_and_inspect(self, capsys):
        assert main(["bench", "--faults", "crash:R0@2+1"]) == 2
        assert "not supported" in capsys.readouterr().err
        assert main(["inspect", "--faults", "crash:R0@2+1"]) == 2

    def test_malformed_elastic_is_exit_2(self, capsys):
        # Eagerly validated before any simulation runs, same as --faults.
        assert main(["run", "--elastic", "bogus"]) == 2
        assert "--elastic:" in capsys.readouterr().err
        assert main(["run", "--elastic", "at:t=1"]) == 2
        assert main(["validate", "--elastic", "scaleout:+0@LI>2/hold=1"]) == 2
        # Net-negative schedules are a spec error, caught at the same gate.
        assert main(["run", "--elastic", "at:t=1-1"]) == 2

    def test_elastic_rejected_by_bench_and_inspect(self, capsys):
        assert main(["bench", "--elastic", "at:t=1+1"]) == 2
        assert "not supported" in capsys.readouterr().err
        assert main(["inspect", "--elastic", "at:t=1+1"]) == 2

    def test_elastic_rejected_for_baseline_systems(self, capsys):
        assert main([
            "run", "--system", "bistream", "--elastic", "at:t=1+1",
        ]) == 2
        assert "fastjoin" in capsys.readouterr().err


class TestFaults:
    """The ``--faults`` flag end to end (see repro.faults)."""

    def test_run_alias_defaults_to_fastjoin(self, capsys):
        code = main([
            "run", "--instances", "2", "--duration", "3",
            "--rate", "300", "--warmup", "1",
        ])
        assert code == 0
        assert "fastjoin" in capsys.readouterr().out

    def test_faulted_run_exits_zero(self, capsys):
        code = main([
            "run", "--faults", "crash:R0@1+0.5;ckpt=0.25",
            "--instances", "2", "--duration", "4",
            "--rate", "300", "--warmup", "1",
        ])
        assert code == 0
        assert "fastjoin" in capsys.readouterr().out

    def test_faulted_validate_exits_zero(self, capsys):
        code = main([
            "validate", "--system", "fastjoin", "--ticks", "150",
            "--faults", "crash:R0@0.5+0.3;ckpt=0.25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "faults=" in out

    def test_out_of_range_instance_is_exit_2(self, capsys):
        code = main([
            "run", "--faults", "crash:R7@1+0.5", "--instances", "2",
            "--duration", "2", "--rate", "200", "--warmup", "1",
        ])
        assert code == 2
        assert "instances" in capsys.readouterr().err

    def test_faulted_compare_is_identical_across_jobs(self, capsys):
        """Acceptance: same seed + fault plan gives bit-identical metrics
        at any --jobs — the whole fault schedule lives in the config."""
        base = [
            "compare", "--instances", "2", "--duration", "3",
            "--rate", "300", "--warmup", "1",
            "--faults", "crash:R0@1+0.5;ckpt=0.25",
        ]
        assert main([*base, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*base, "--jobs", "2"]) == 0
        fanned = capsys.readouterr().out
        assert serial == fanned


class TestElastic:
    """The ``--elastic`` flag end to end (see repro.elastic)."""

    def test_elastic_run_exits_zero(self, capsys):
        code = main([
            "run", "--elastic", "at:t=1+1;at:t=2.5-1",
            "--instances", "2", "--duration", "4",
            "--rate", "300", "--warmup", "1",
        ])
        assert code == 0
        assert "fastjoin" in capsys.readouterr().out

    def test_elastic_validate_exits_zero(self, capsys):
        code = main([
            "validate", "--system", "fastjoin", "--ticks", "150",
            "--elastic", "at:t=0.5+1;at:t=1-1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "elastic=" in out

    def test_elastic_composes_with_faults(self, capsys):
        code = main([
            "run", "--elastic", "at:t=1+1",
            "--faults", "crash:R0@1.5+0.5;ckpt=0.25",
            "--instances", "2", "--duration", "4",
            "--rate", "300", "--warmup", "1",
        ])
        assert code == 0


class TestMain:
    def test_single_system_run(self, capsys):
        code = main([
            "fastjoin", "--instances", "2", "--duration", "4",
            "--rate", "300", "--warmup", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fastjoin" in out
        assert "throughput" in out

    def test_compare_run(self, capsys):
        code = main([
            "compare", "--instances", "2", "--duration", "3",
            "--rate", "300", "--warmup", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for system in ("fastjoin", "bistream", "contrand"):
            assert system in out

    def test_synthetic_run(self, capsys):
        code = main([
            "bistream", "--workload", "G01", "--instances", "2",
            "--duration", "3", "--rate", "200", "--warmup", "1",
        ])
        assert code == 0
        assert "bistream" in capsys.readouterr().out


class TestTraceAndInspect:
    def test_traced_run_then_inspect(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        code = main([
            "fastjoin", "--workload", "G21", "--instances", "2",
            "--duration", "4", "--rate", "400", "--warmup", "1",
            "--trace", str(trace),
        ])
        assert code == 0
        assert trace.exists() and trace.stat().st_size > 0
        # the run prints a profiler summary on stderr
        assert "dispatch" in capsys.readouterr().err
        assert main(["inspect", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-second series" in out
        assert "migration spans" in out

    def test_compare_writes_per_system_traces(self, tmp_path, capsys):
        trace = tmp_path / "cmp.jsonl"
        code = main([
            "compare", "--instances", "2", "--duration", "2",
            "--rate", "200", "--warmup", "1", "--trace", str(trace),
        ])
        assert code == 0
        for system in ("fastjoin", "bistream", "contrand"):
            per_system = tmp_path / f"cmp.jsonl.{system}"
            assert per_system.exists() and per_system.stat().st_size > 0

    def test_inspect_requires_a_path(self, capsys):
        assert main(["inspect"]) == 2
        assert "requires a trace file" in capsys.readouterr().err

    def test_inspect_missing_file(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_inspect_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["inspect", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad trace" in err
        # one line, naming the file and the offending line number
        assert err.count("\n") == 1
        assert f"{bad}:1" in err

    def test_inspect_accepts_trace_flag(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"ts": 0.5, "kind": "tick", "tick": 1}\n')
        assert main(["inspect", "--trace", str(trace)]) == 0
        assert "per-second series" in capsys.readouterr().out

    def test_validate_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "v.jsonl"
        code = main([
            "validate", "--system", "fastjoin", "--ticks", "150",
            "--trace", str(trace),
        ])
        assert code == 0
        assert trace.exists() and trace.stat().st_size > 0
        assert "OK" in capsys.readouterr().out

    def test_trace_is_byte_identical_across_jobs(self, tmp_path, capsys):
        """--trace under --jobs N forwards worker-captured events to the
        parent; the resulting files must equal a serial run's bytes."""
        serial, fanned = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        base = ["compare", "--instances", "2", "--duration", "2",
                "--rate", "200", "--warmup", "1"]
        assert main([*base, "--jobs", "1", "--trace", str(serial)]) == 0
        assert main([*base, "--jobs", "2", "--trace", str(fanned)]) == 0
        capsys.readouterr()
        for system in ("fastjoin", "bistream", "contrand"):
            a = (tmp_path / f"s.jsonl.{system}").read_bytes()
            b = (tmp_path / f"p.jsonl.{system}").read_bytes()
            assert a == b and a

    def test_validate_fuzz_campaign(self, capsys):
        code = main(["validate", "--fuzz", "1", "--jobs", "2", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzz campaign" in out
        assert "0 failure(s)" in out


class TestBench:
    """The ``bench`` subcommand (hot-path performance matrix)."""

    @pytest.fixture
    def tiny_matrix(self, monkeypatch):
        """Shrink the matrix to one fast case so the CLI runs in ~a second."""
        from repro.bench import perf

        tiny = perf.BenchCase(
            name="tiny/bistream", system="bistream", workload="ridehailing",
            n_instances=2, duration=3.0, rate=2_000.0, seed=3, quick=True,
        )
        monkeypatch.setattr(perf, "BENCH_CASES", (tiny,))
        return tiny

    def test_parser_accepts_bench_flags(self):
        args = build_parser().parse_args([
            "bench", "--quick", "--check", "--tolerance", "0.5",
            "--repeats", "2", "--baseline", "b.json",
        ])
        assert args.system == "bench"
        assert args.quick and args.check
        assert args.tolerance == 0.5
        assert args.repeats == 2
        assert args.baseline == "b.json"

    def test_bench_writes_report(self, tiny_matrix, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--repeats", "1"])
        assert code == 0
        assert (tmp_path / "BENCH_hotpath.json").exists()
        out = capsys.readouterr().out
        assert "tiny/bistream" in out

    def test_bench_check_against_fresh_baseline(self, tiny_matrix, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        assert main(["bench", "--repeats", "1", "--update-baseline",
                     "--baseline", str(baseline)]) == 0
        assert baseline.exists()
        # Deterministic metrics are identical run-to-run, and a tolerant
        # wall band absorbs machine noise, so --check passes.
        code = main(["bench", "--repeats", "1", "--check",
                     "--tolerance", "0.99", "--baseline", str(baseline)])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_bench_check_detects_semantic_drift(self, tiny_matrix, tmp_path, capsys):
        import json

        baseline = tmp_path / "base.json"
        assert main(["bench", "--repeats", "1", "--update-baseline",
                     "--baseline", str(baseline)]) == 0
        doctored = json.loads(baseline.read_text())
        doctored["cases"][0]["total_results"] += 1
        baseline.write_text(json.dumps(doctored))
        code = main(["bench", "--repeats", "1", "--check",
                     "--tolerance", "0.99", "--baseline", str(baseline)])
        assert code == 1
        assert "total_results" in capsys.readouterr().err

    def test_bench_check_without_baseline_is_an_error(self, tiny_matrix, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--repeats", "1", "--check",
                     "--baseline", str(tmp_path / "missing.json")])
        assert code == 2
        assert "no baseline" in capsys.readouterr().err

    def test_bench_check_passes_under_jobs(self, tiny_matrix, tmp_path, capsys):
        """A serial baseline must check clean under any --jobs value: the
        simulated metrics are bit-identical by construction and only the
        wall numbers (tolerance-compared) can move."""
        baseline = tmp_path / "base.json"
        assert main(["bench", "--repeats", "1", "--jobs", "1",
                     "--update-baseline", "--baseline", str(baseline)]) == 0
        code = main(["bench", "--repeats", "2", "--jobs", "2", "--check",
                     "--tolerance", "0.99", "--baseline", str(baseline)])
        assert code == 0
        assert "ok" in capsys.readouterr().out


class TestBenchJobsDefault:
    """--check and --sentinel judge wall time only on serial runs, so they
    default to --jobs 1; an explicit --jobs still wins."""

    @pytest.fixture
    def recorded_jobs(self, monkeypatch, tmp_path):
        from repro.bench import perf, sentinel

        seen = []

        def fake_run_matrix(quick=False, progress=None, repeats=1, jobs=None):
            seen.append(("matrix", jobs))
            return {"cases": [], "jobs": jobs or 2}

        def fake_check_sentinel(report, history, tolerance=None, jobs=None,
                                baseline=None):
            seen.append(("sentinel", jobs))
            return SimpleNamespace(lines=[], warnings=[], failures=["stop"],
                                   entry={})

        monkeypatch.setattr(perf, "run_matrix", fake_run_matrix)
        monkeypatch.setattr(perf, "format_report", lambda report: "")
        monkeypatch.setattr(perf, "compare_reports", lambda *a, **k:
                            SimpleNamespace(lines=[], warnings=[], failures=[]))
        monkeypatch.setattr(perf, "load_report", lambda path: {"cases": []})
        monkeypatch.setattr(sentinel, "check_sentinel", fake_check_sentinel)
        monkeypatch.setattr(sentinel, "load_history",
                            lambda path: {"entries": [{}]})
        monkeypatch.chdir(tmp_path)
        return seen

    @pytest.mark.parametrize("mode", ["--check", "--sentinel"])
    def test_check_and_sentinel_default_to_one_job(self, recorded_jobs, mode):
        main(["bench", "--quick", mode])
        assert recorded_jobs and all(jobs == 1 for _, jobs in recorded_jobs)

    @pytest.mark.parametrize("mode", ["--check", "--sentinel"])
    def test_explicit_jobs_wins(self, recorded_jobs, mode):
        main(["bench", "--quick", mode, "--jobs", "2"])
        assert recorded_jobs and all(jobs == 2 for _, jobs in recorded_jobs)

    def test_plain_bench_keeps_the_parallel_default(self, recorded_jobs):
        main(["bench", "--quick"])
        assert recorded_jobs == [("matrix", None)]


class TestBenchProfileFlag:
    @pytest.mark.parametrize(
        "extra", [["--check"], ["--sentinel"], ["--update-baseline"]]
    )
    def test_profile_rejects_baseline_modes(self, extra, capsys):
        assert main(["bench", "--profile", *extra]) == 2
        assert "not baseline-comparable" in capsys.readouterr().err

    def test_profile_prints_phase_tables(self, monkeypatch, capsys):
        from repro.bench import perf
        from repro.obs.profile import PhaseProfiler

        prof = PhaseProfiler(track_alloc=True)
        prof.add("service", 0.5, work=100, alloc=0)

        def fake_run_profile(quick=False, alloc=True, progress=None, cases=None):
            assert quick and alloc
            return {"tiny/fake/1": {"phases": prof.report(), "_profiler": prof}}

        monkeypatch.setattr(perf, "run_profile", fake_run_profile)
        assert main(["bench", "--profile", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "tiny/fake/1" in out
        assert "alloc B" in out

    def test_profile_prints_the_service_sub_phases(self, monkeypatch, capsys):
        """A real profiled run splits the service phase at the kernel
        boundary: gather, kernel and fold each get a row."""
        from repro.bench import perf

        tiny = perf.BenchCase(
            name="tiny/fastjoin", system="fastjoin", workload="ridehailing",
            n_instances=2, duration=2.0, rate=2_000.0, seed=3, quick=True,
        )
        monkeypatch.setattr(perf, "BENCH_CASES", (tiny,))
        assert main(["bench", "--profile", "--quick", "--no-alloc"]) == 0
        out = capsys.readouterr().out
        assert "tiny/fastjoin" in out
        for phase in ("service.gather", "service.kernel", "service.fold"):
            assert phase in out, phase

    def test_profile_prints_emit_and_dispatch(self, monkeypatch, capsys):
        """Source emission and dispatch are separate phases with their own
        work: tuples emitted, and operations delivered (a store and one
        probe per tuple under hash partitioning)."""
        from repro.bench import perf

        tiny = perf.BenchCase(
            name="tiny/bistream", system="bistream", workload="ridehailing",
            n_instances=2, duration=2.0, rate=2_000.0, seed=3, quick=True,
        )
        monkeypatch.setattr(perf, "BENCH_CASES", (tiny,))
        phases = perf.run_profile(quick=True, alloc=False)[tiny.name]["phases"]
        emitted = phases["emit"]["work_units"]
        assert emitted > 0
        assert phases["dispatch"]["work_units"] == 2 * emitted
        assert main(["bench", "--profile", "--quick", "--no-alloc"]) == 0
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                if line.strip()]
        assert "emit" in rows and "dispatch" in rows

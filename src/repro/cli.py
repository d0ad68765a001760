"""Command-line interface: run stream-join experiments from a shell.

Examples
--------
Run FastJoin on the calibrated ride-hailing workload for 30 s::

    python -m repro fastjoin --duration 30

Compare all three systems::

    python -m repro compare --duration 30 --instances 16

Run a synthetic skew group::

    python -m repro fastjoin --workload G12 --duration 20 --instances 8

Cross-check a system against the exact-semantics oracle::

    python -m repro validate --system fastjoin --seed 7 --ticks 2000

Inject deterministic faults (crash/recovery, failover, batch delays,
mid-migration aborts) into a run or a validation::

    python -m repro run --faults 'crash:R0@10+2;ckpt=0.5' --duration 30
    python -m repro validate --system fastjoin --faults 'failover:S1@2+1'

Scale the join group elastically mid-run under a deterministic policy
(scheduled events and/or reactive rules)::

    python -m repro run --elastic 'at:t=10+2;at:t=20-2' --duration 30
    python -m repro validate --elastic 'scaleout:+2@LI>3.0/hold=2.0'

Run the hot-path performance benchmark and check it against the committed
baseline::

    python -m repro bench
    python -m repro bench --quick --check

Fan any campaign out across worker processes (results are bit-identical
to a serial run for every ``--jobs`` value; see ``repro.parallel``)::

    python -m repro compare --duration 30 --jobs 3
    python -m repro bench --quick --check --jobs 2
    python -m repro validate --fuzz 8 --jobs 2

Record a structured event trace and inspect it afterwards::

    python -m repro fastjoin --workload G21 --duration 20 --trace run.jsonl
    python -m repro inspect run.jsonl

The CLI is a thin veneer over :mod:`repro.bench.experiments`,
:mod:`repro.validate` and :mod:`repro.obs`; everything it can do is also
available programmatically.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench.experiments import ExperimentResult, run_compare
from .bench.report import comparison_table
from .data.synthetic import SKEW_GROUPS
from .systems import SYSTEMS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FastJoin reproduction — run skew-aware stream-join experiments",
    )
    parser.add_argument(
        "system",
        choices=[*SYSTEMS, "run", "compare", "validate", "inspect", "bench"],
        help="system to run ('run' is an alias for --system, default "
        "fastjoin), 'compare' for all three, 'validate' to "
        "cross-check a system against the exact-semantics oracle, "
        "'inspect' to replay a recorded JSONL trace into a report, or "
        "'bench' to run the hot-path performance benchmark matrix",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="trace file to read (the 'inspect' subcommand)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a JSONL event trace of the run (run/validate), or "
        "the trace to read for 'inspect'",
    )
    parser.add_argument(
        "--workload",
        default="ridehailing",
        choices=["ridehailing", *SKEW_GROUPS],
        help="ride-hailing (DiDi substitute) or a Gxy synthetic skew group",
    )
    parser.add_argument("--instances", type=int, default=None,
                        help="join instances per biclique side "
                        "(default: 16 for experiments, 4 for validate)")
    parser.add_argument("--duration", type=float, default=30.0,
                        help="simulated seconds to run")
    parser.add_argument("--theta", type=float, default=2.2,
                        help="load-imbalance threshold (FastJoin only)")
    parser.add_argument("--selector", default="greedyfit",
                        choices=["greedyfit", "safit"],
                        help="key-selection algorithm (FastJoin only)")
    parser.add_argument("--rate", type=float, default=None,
                        help="override the offered order rate (tuples/s)")
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument("--warmup", type=float, default=None,
                        help="seconds excluded from steady-state averages")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for campaign subcommands "
                        "(compare/validate/bench); results are bit-identical "
                        "to --jobs 1 (default: one per CPU, capped)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="deterministic fault-injection plan for "
                        "run/compare/validate, e.g. "
                        "'crash:R0@4+2;delay:S@2+0.5;ckpt=0.5' "
                        "(see repro.faults.plan for the grammar)")
    parser.add_argument("--elastic", default=None, metavar="SPEC",
                        help="deterministic elasticity policy for "
                        "run/compare/validate, e.g. "
                        "'scaleout:+2@LI>3.0/hold=2.0;at:t=12-2' "
                        "(see repro.elastic.policy for the grammar)")

    validate = parser.add_argument_group(
        "validate", "options for the 'validate' subcommand"
    )
    validate.add_argument(
        "--system",
        dest="validate_system",
        default=None,
        choices=list(SYSTEMS),
        help="system to cross-check, or to run under the 'run' alias "
        "(default: all three / fastjoin)",
    )
    validate.add_argument("--ticks", type=int, default=2_000,
                          help="simulation ticks before drain")
    validate.add_argument(
        "--scenario",
        default="zipf",
        choices=["zipf", "ridehailing", "windowed"],
        help="validation workload family",
    )
    validate.add_argument("--zipf", type=float, default=1.2,
                          help="Zipf exponent of the zipf/windowed scenarios")
    validate.add_argument("--no-guards", action="store_true",
                          help="disable the runtime invariant guards")
    validate.add_argument("--fuzz", type=int, default=None, metavar="N",
                          help="run the adversarial fuzz campaign over N "
                          "seeds (x modes x selectors) instead of the "
                          "differential cross-check")

    inspect_group = parser.add_argument_group(
        "inspect", "options for the 'inspect' subcommand"
    )
    inspect_group.add_argument("--top", type=int, default=10,
                               help="hot keys to list in the report")
    inspect_group.add_argument("--diff", nargs=2, default=None,
                               metavar=("A.jsonl", "B.jsonl"),
                               help="diff two traces instead of rendering "
                               "one: per-second series deltas, span-phase "
                               "deltas, migration-schedule divergence and "
                               "hot-key churn; exits 0 iff identical")

    bench = parser.add_argument_group(
        "bench", "options for the 'bench' subcommand"
    )
    bench.add_argument("--quick", action="store_true",
                       help="run only the CI smoke subset of the matrix")
    bench.add_argument("--check", action="store_true",
                       help="compare the fresh run against the committed "
                       "baseline; exit non-zero on regression")
    bench.add_argument("--update-baseline", action="store_true",
                       help="overwrite the baseline file with this run")
    bench.add_argument("--baseline", default="BENCH_hotpath.json",
                       metavar="PATH",
                       help="baseline report path (default: "
                       "BENCH_hotpath.json in the current directory)")
    bench.add_argument("--output", default=None, metavar="PATH",
                       help="also write the fresh report to this path")
    bench.add_argument("--tolerance", type=float, default=None,
                       help="relative wall-clock slowdown vs baseline that "
                       "fails --check (default 0.20)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="wall-clock repeats per case; the best run is "
                       "reported (default 3)")
    bench.add_argument("--profile", action="store_true",
                       help="profile the matrix cells instead of timing "
                       "them: one run per cell with the phase profiler "
                       "attached, printing a per-phase wall/work/alloc "
                       "table (tracemalloc is live, so numbers are not "
                       "baseline-comparable and nothing is written)")
    bench.add_argument("--no-alloc", action="store_true",
                       help="with --profile: skip the tracemalloc "
                       "allocation counter (wall/work attribution only)")
    bench.add_argument("--sentinel", action="store_true",
                       help="perf-regression sentinel: compare this run "
                       "against the committed trajectory history "
                       "(deterministic metrics exactly, wall-clock "
                       "statistically), append a trajectory entry when "
                       "clean, exit non-zero on regression")
    bench.add_argument("--history", default="BENCH_trajectory.json",
                       metavar="PATH",
                       help="sentinel trajectory history path (default: "
                       "BENCH_trajectory.json in the current directory)")
    return parser


def _trace_path(base: str, system: str, multi: bool) -> str:
    """Per-system trace path when one invocation runs several systems."""
    return f"{base}.{system}" if multi else base


def _row(result: ExperimentResult) -> dict:
    return {
        "system": result.system,
        "throughput (results/s)": result.throughput,
        "latency (ms)": result.latency_ms,
        "migrations": result.n_migrations,
        "median LI": result.median_li(),
    }


def _run_validate(args: argparse.Namespace) -> int:
    """The ``validate`` subcommand: differential oracle cross-checks.

    Cells fan out across ``--jobs`` workers; a worker-side
    :class:`~repro.errors.ValidationError` comes back as a failed outcome
    (reported, counted, exit 1), and captured trace events are forwarded
    to the parent's per-system files, so ``--trace`` behaves identically
    for every ``--jobs`` value.
    """
    from .validate import DifferentialTask, run_differential_campaign

    if args.fuzz is not None:
        return _run_fuzz(args)
    if args.validate_system:
        systems = [args.validate_system]
    elif args.elastic is not None:
        # Only fastjoin can scale (checked in _check_args); an elastic
        # validate without --system therefore runs the one elastic system
        # instead of crashing the two baselines.
        systems = ["fastjoin"]
    else:
        systems = list(SYSTEMS)
    tasks = [
        DifferentialTask(
            system=system,
            workload=args.scenario,
            seed=args.seed,
            ticks=args.ticks,
            n_instances=args.instances if args.instances is not None else 4,
            zipf=args.zipf,
            guards=not args.no_guards,
            capture=args.trace is not None,
            fault_spec=args.faults,
            elastic_spec=args.elastic,
        )
        for system in systems
    ]

    def progress(task):
        print(
            f"validating {task.system} on {task.workload} "
            f"(seed={task.seed}, ticks={task.ticks})...",
            file=sys.stderr,
        )

    outcomes = run_differential_campaign(
        tasks, jobs=args.jobs, progress=progress
    )
    failures = 0
    for outcome in outcomes:
        if args.trace:
            from .obs import write_events_jsonl

            write_events_jsonl(
                outcome.events or [],
                _trace_path(args.trace, outcome.task.system, len(systems) > 1),
            )
        if outcome.error is not None:
            print(f"invariant violated: {outcome.error}")
            failures += 1
            continue
        print(outcome.report.summary())
        if not outcome.report.ok:
            failures += 1
    return 1 if failures else 0


def _run_fuzz(args: argparse.Namespace) -> int:
    """The fuzz campaign behind ``validate --fuzz N``: ``N`` seeds x
    modes x selectors of adversarial migration schedules."""
    from .validate import fuzz_grid, run_fuzz_campaign, summarize_fuzz_reports

    tasks = fuzz_grid(args.fuzz, base_seed=args.seed)

    def progress(task):
        print(f"fuzzing {task.label}...", file=sys.stderr)

    reports = run_fuzz_campaign(tasks, jobs=args.jobs, progress=progress)
    print(summarize_fuzz_reports(reports))
    return 1 if any(not r.ok for r in reports) else 0


def _run_bench(args: argparse.Namespace) -> int:
    """The ``bench`` subcommand: reproducible hot-path throughput matrix."""
    from .bench import perf

    repeats = args.repeats if args.repeats is not None else perf.DEFAULT_REPEATS
    tolerance = (
        args.tolerance if args.tolerance is not None else perf.DEFAULT_TOLERANCE
    )

    if args.profile and (args.check or args.sentinel or args.update_baseline):
        print("--profile runs under tracemalloc; its wall numbers are not "
              "baseline-comparable, so it cannot be combined with --check, "
              "--sentinel or --update-baseline", file=sys.stderr)
        return 2

    def progress(case):
        print(f"bench {case.name} (rate {case.rate:g}, "
              f"{case.duration:g}s x {repeats} repeats)...", file=sys.stderr)

    if args.profile:
        def profile_progress(case):
            print(f"profiling {case.name} (rate {case.rate:g}, "
                  f"{case.duration:g}s)...", file=sys.stderr)

        profiled = perf.run_profile(
            quick=args.quick, alloc=not args.no_alloc,
            progress=profile_progress,
        )
        for name, entry in profiled.items():
            print(f"\n{name}")
            print(entry["_profiler"].summary())
        return 0

    # The wall-clock checks only judge serial runs (workers sharing the
    # cores skew wall time), so --check and --sentinel run serially unless
    # --jobs says otherwise.
    jobs = args.jobs
    if jobs is None and (args.check or args.sentinel):
        jobs = 1
    report = perf.run_matrix(quick=args.quick, progress=progress,
                             repeats=repeats, jobs=jobs)
    print(perf.format_report(report))
    if args.output:
        perf.write_report(report, args.output)
        print(f"report written to {args.output}", file=sys.stderr)
    if args.update_baseline:
        perf.write_report(report, args.baseline)
        print(f"baseline updated: {args.baseline}", file=sys.stderr)
        return 0
    if args.check:
        try:
            baseline = perf.load_report(args.baseline)
        except FileNotFoundError:
            print(f"no baseline at {args.baseline}; run with "
                  "--update-baseline first", file=sys.stderr)
            return 2
        cmp = perf.compare_reports(report, baseline, tolerance=tolerance)
        for line in cmp.lines:
            print(line)
        for warning in cmp.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        for failure in cmp.failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if cmp.failures else 0
    if args.sentinel:
        from .bench import sentinel

        history = sentinel.load_history(args.history)
        baseline = None
        if not history.get("entries"):
            try:
                baseline = perf.load_report(args.baseline)
            except FileNotFoundError:
                pass  # first run with no baseline: seed the trajectory
        result = sentinel.check_sentinel(
            report, history, tolerance=tolerance, jobs=jobs,
            baseline=baseline,
        )
        for line in result.lines:
            print(line)
        for warning in result.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        for failure in result.failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if result.failures:
            print(f"sentinel: regression detected; {args.history} left "
                  "untouched", file=sys.stderr)
            return 1
        sentinel.append_entry(history, result.entry)
        sentinel.write_history(history, args.history)
        print(f"sentinel: clean; trajectory entry #{result.entry['seq']} "
              f"appended to {args.history}", file=sys.stderr)
        return 0
    if not args.output:
        perf.write_report(report, "BENCH_hotpath.json")
        print("report written to BENCH_hotpath.json", file=sys.stderr)
    return 0


def _load_trace_report(path: str):
    """Read + reconstruct one trace, or ``(None, exit_code)`` on failure.

    Truncated or corrupt traces are an *input* problem, not a crash: the
    CLI reports one line (file and line number, from
    :class:`~repro.obs.inspect.TraceFormatError`) and exits 2, the usage-
    error convention the rest of the CLI already follows.
    """
    from .obs.inspect import TraceFormatError, build_report, read_events

    try:
        return build_report(read_events(path)), 0
    except FileNotFoundError:
        print(f"no such trace file: {path}", file=sys.stderr)
        return None, 2
    except TraceFormatError as exc:
        print(f"bad trace: {exc}", file=sys.stderr)
        return None, 2


def _run_inspect(args: argparse.Namespace) -> int:
    """The ``inspect`` subcommand: replay a JSONL trace into a report,
    or diff two traces (``--diff A.jsonl B.jsonl``)."""
    from .obs.inspect import render_report

    if args.diff is not None:
        path_a, path_b = args.diff
        report_a, code = _load_trace_report(path_a)
        if report_a is None:
            return code
        report_b, code = _load_trace_report(path_b)
        if report_b is None:
            return code
        from .obs.diff import diff_reports, render_diff

        diff = diff_reports(report_a, report_b)
        try:
            print(render_diff(diff, label_a=path_a, label_b=path_b))
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0 if diff.is_empty() else 1

    path = args.path or args.trace
    if path is None:
        print("inspect requires a trace file (positional or --trace)",
              file=sys.stderr)
        return 2
    report, code = _load_trace_report(path)
    if report is None:
        return code
    try:
        print(render_report(report, top=args.top))
    except BrokenPipeError:
        # e.g. `repro inspect t.jsonl | head` — redirect stdout to devnull
        # so the interpreter's exit flush doesn't raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _check_args(args: argparse.Namespace) -> str | None:
    """Early argument hygiene; returns an error message or ``None``."""
    if args.jobs is not None and args.jobs < 1:
        return f"--jobs must be >= 1, got {args.jobs}"
    if args.repeats is not None and args.repeats < 1:
        return f"--repeats must be >= 1, got {args.repeats}"
    if args.fuzz is not None and args.fuzz < 1:
        return f"--fuzz must be >= 1, got {args.fuzz}"
    if args.faults is not None:
        from .errors import ConfigError
        from .faults import parse_fault_spec

        try:
            plan = parse_fault_spec(args.faults)
        except ConfigError as exc:
            return f"--faults: {exc}"
        if args.system in ("inspect", "bench"):
            return f"--faults is not supported by '{args.system}'"
        # check instance indices against the group size the run will use
        # (mirrors the mode-specific defaults applied later)
        n_instances = args.instances
        if n_instances is None:
            n_instances = 4 if args.system == "validate" else 16
        try:
            plan.validate(n_instances)
        except ConfigError as exc:
            return f"--faults: {exc}"
    if args.elastic is not None:
        from .elastic import parse_elastic_spec
        from .errors import ConfigError

        try:
            policy = parse_elastic_spec(args.elastic)
        except ConfigError as exc:
            return f"--elastic: {exc}"
        if args.system in ("inspect", "bench"):
            return f"--elastic is not supported by '{args.system}'"
        # Scaling needs active balancing monitors (their selector/executor
        # seed the new instances), so only fastjoin can run elastically.
        chosen = args.validate_system or args.system
        if chosen in ("bistream", "contrand", "compare"):
            return (
                "--elastic requires the fastjoin system (baselines have no "
                f"balancing monitor to seed new instances), got {chosen!r}"
            )
        n_instances = args.instances
        if n_instances is None:
            n_instances = 4 if args.system == "validate" else 16
        try:
            policy.validate(n_instances)
        except ConfigError as exc:
            return f"--elastic: {exc}"
    return None


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    error = _check_args(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.system == "inspect":
        return _run_inspect(args)
    if args.system == "validate":
        return _run_validate(args)
    if args.system == "bench":
        return _run_bench(args)
    if args.system == "run":
        # 'run' is the neutral single-system spelling (the natural host
        # for --faults): `repro run --faults ... [--system bistream]`.
        args.system = args.validate_system or "fastjoin"
    if args.instances is None:
        args.instances = 16
    systems = list(SYSTEMS) if args.system == "compare" else [args.system]
    warmup = args.warmup if args.warmup is not None else min(
        25.0, args.duration / 2
    )
    # the synthetic groups' long-standing CLI default offered rate
    rate = args.rate
    if rate is None and args.workload != "ridehailing":
        rate = 1_500.0

    def progress(task):
        print(f"running {task.system} on {task.workload} "
              f"({args.instances} instances, {args.duration:g}s)...",
              file=sys.stderr)

    outcomes = run_compare(
        systems,
        workload=args.workload,
        n_instances=args.instances,
        duration=args.duration,
        rate=rate,
        theta=args.theta,
        selector=args.selector,
        seed=args.seed,
        warmup=warmup,
        capture=args.trace is not None,
        fault_spec=args.faults,
        elastic_spec=args.elastic,
        jobs=args.jobs,
        progress=progress,
    )
    rows = []
    for outcome in outcomes:
        if args.trace:
            from .obs import write_events_jsonl

            write_events_jsonl(
                outcome.events or [],
                _trace_path(args.trace, outcome.task.system, len(systems) > 1),
            )
        if outcome.profiler_summary:
            print(outcome.profiler_summary, file=sys.stderr)
        rows.append(_row(outcome.result))
    print(comparison_table(rows, list(rows[0].keys())))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

"""End-to-end benchmark of the FastJoin reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                      # every workload
    python3 benchmarks/e2e/run.py --workload fig1-skew --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --trace-dir trace/   # + traced runs
    python3 benchmarks/e2e/run.py --seed 0 --quick --out run.json

Each workload runs in fresh child processes, one after another, never
concurrently, with ``PYTHONPATH=<repo>/src`` and ``OMP_NUM_THREADS=1``:
set-up children (set-up time is the median over them and the measured
child), then the measured child, untraced (``--trace 0``) or traced
(``--trace 1``).  ``--trace-dir`` runs both, reports the tracing overhead
and writes ``layers.json`` and ``spans.jsonl`` there.

The command prints ``workload metric value unit`` lines, checks the
program's outputs, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``).  Metric names are prefixed with ``<workload>.`` when more
than one workload ran.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: set-up samples per untraced run (the measured child is one of them)
SETUP_SAMPLES = 7
#: the measured child's time limit; the whole run must end within 180 s
RUN_TIMEOUT_S = 165.0
#: the first child of a checkout compiles bytecode and the optional kernels
WARM_TIMEOUT_S = 600.0
QUICK_SECONDS = 1.0


class BenchError(RuntimeError):
    """The benchmark could not run or a child process failed."""


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict:
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = ROOT / build
    tmp = build / "e2e-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        # The optional C kernels are compiled into the temporary directory:
        # keep it inside the checkout.
        TMPDIR=str(tmp),
    )
    return env


def _child(args: dict, env: dict, timeout: float) -> dict:
    """Run one child process to completion and parse its result line."""
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(args)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The child's own workers (shards) share its process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args['mode']} {args.get('workload', '')}: timed out "
                         f"after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{args['mode']} {args.get('workload', '')} exited "
                         f"{proc.returncode}:\n{err[-3000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{args['mode']} {args.get('workload', '')}: no output")
    return json.loads(lines[-1])


def run_workload(name: str, opts, env: dict, trace_dir: Path | None) -> dict:
    """All runs of one workload; returns its record for ``--out``."""
    base = {"workload": name, "seed": opts.seed, "seconds": opts.seconds,
            "quick": opts.quick}
    record = {"workload": name, "seed": opts.seed, "seconds": opts.seconds}
    untraced = traced = None
    if opts.trace == 0 or trace_dir is not None:
        setups = [
            _child({**base, "mode": "setup", "trace": 0}, env, 60.0)
            for _ in range(0 if opts.quick else SETUP_SAMPLES - 1)
        ]
        untraced = _child({**base, "mode": "run", "trace": 0}, env, RUN_TIMEOUT_S)
        setups.append(untraced)
        untraced["setup_samples"] = [s["setup_s"] for s in setups]
        untraced["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        untraced["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
        record["untraced"] = untraced
    if opts.trace == 1 or trace_dir is not None:
        args = {**base, "mode": "run", "trace": 1}
        if trace_dir is not None:
            args["spans"] = str(trace_dir / "spans.jsonl")
        traced = _child(args, env, RUN_TIMEOUT_S)
        record["traced"] = traced
    if untraced is not None and traced is not None:
        record["trace_overhead"] = traced["scaled_wall_s"] / untraced["scaled_wall_s"] - 1.0
    return record


def _verdict(record: dict) -> tuple[int, list[str]]:
    """Checks attempted and failures of one workload's runs."""
    attempted = 0
    failures: list[str] = []
    runs = [record[k] for k in ("untraced", "traced") if k in record]
    for run in runs:
        attempted += run["checks_attempted"]
        failures += run["check_failures"]
    if len(runs) == 2:
        # Tracing must not change what the program computes.
        attempted += 1
        if runs[0]["digest"] != runs[1]["digest"]:
            failures.append("traced and untraced runs computed different results")
    return attempted, failures


def _metrics(record: dict, spec: dict, trace: int) -> dict:
    """The metrics the final line reports for one workload."""
    out = {}
    if trace == 0:
        run = record["untraced"]
        for m in spec["end_to_end"]:
            out[m["name"]] = {"value": float(run[m["name"]]), "unit": m["unit"]}
    else:
        layers = record["traced"]["layers"]
        for m in spec["per_layer"]:
            if m["name"] not in layers:
                raise BenchError(f"per-layer metric {m['name']} was not measured")
            out[m["name"]] = {"value": float(layers[m["name"]]), "unit": m["unit"]}
    return out


def _print_record(record: dict, spec: dict) -> None:
    name = record["workload"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    run = record.get("untraced")
    if run is not None:
        for m in spec["end_to_end"]:
            print(f"{name} {m['name']} {run[m['name']]:.6g} {m['unit']}")
        for key in ("tuples_per_s", "tick_ms_p50", "tick_ms_p99", "setup_s"):
            print(f"{name} raw_{key} {run['raw_' + key]:.6g} {units[key]}")
        print(f"{name} speed_scale {run['speed_scale']:.4f} ratio")
        print(f"{name} tick_samples {run['ticks']} ticks")
        if "cases" in run:
            print(f"{name} cases {run['cases']} cases")
        print(f"{name} setup_samples {len(run['setup_samples'])} runs")
        print(f"{name} shards {run['shards']} processes")
        print(f"{name} digest {run['digest']}")
    traced = record.get("traced")
    if traced is not None:
        for key in sorted(traced["layers"]):
            print(f"{name} {key} {traced['layers'][key]:.6g} {units.get(key, '')}".rstrip())
    if "trace_overhead" in record:
        print(f"{name} trace_overhead {record['trace_overhead']:.4f} ratio")


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"wall seconds of work per run (default "
                             f"{spec['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="also run traced and write layers.json and "
                             "spans.jsonl here")
    parser.add_argument("--quick", action="store_true",
                        help="short warm-up and window, one set-up sample")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every measurement as JSON")
    opts = parser.parse_args(argv)
    if opts.seconds is None:
        opts.seconds = QUICK_SECONDS if opts.quick else float(spec["run_seconds"])
    if opts.seconds <= 0 or opts.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    trace_dir = opts.trace_dir
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / "spans.jsonl").write_text("")

    t0 = time.perf_counter()
    try:
        env = _child_env()
        machine = _child({"mode": "warm"}, env, WARM_TIMEOUT_S)
        machine["nproc"] = os.cpu_count()
        records = [
            run_workload(name, opts, env, trace_dir)
            for name in ([opts.workload] if opts.workload else names)
        ]
        metrics = {}
        attempted = 0
        failures: list[str] = []
        for record in records:
            _print_record(record, spec)
            n, bad = _verdict(record)
            attempted += n
            failures += bad
            prefix = "" if len(records) == 1 else record["workload"] + "."
            for key, value in _metrics(record, spec, opts.trace).items():
                metrics[prefix + key] = value
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if trace_dir is not None:
        layers = {r["workload"]: r["traced"]["layers"] for r in records}
        with open(trace_dir / "layers.json", "w", encoding="utf-8") as fh:
            json.dump(layers, fh, indent=2, sort_keys=True)
    if opts.out is not None:
        with open(opts.out, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine, "trace": opts.trace, "runs": records,
                       "elapsed_s": time.perf_counter() - t0},
                      fh, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

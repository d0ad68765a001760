"""The benchmark's interface: BENCHMARK.json, the command line and outputs.

One ``run.py --quick --trace-dir`` run over every workload serves most
tests: it must print every workload and metric with units, keep traced and
untraced results identical, and write bounded traces whose self times add
up to the traced wall time.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parents[1]
RUN = BENCH / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(RUN), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick")
    proc = _run("--seed", 0, "--quick", "--trace-dir", out / "trace",
                "--out", out / "run.json")
    return proc, out


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(m["name"])
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_quick_run_prints_every_workload_and_metric(quick):
    proc, _ = quick
    result = _result(proc)
    lines = proc.stdout.splitlines()
    for workload in WORKLOADS:
        for m in SPEC["end_to_end"]:
            pattern = rf"^{re.escape(workload)} {re.escape(m['name'])} \S+ {re.escape(m['unit'])}$"
            assert any(re.match(pattern, line) for line in lines), (workload, m)
            value = result["metrics"][f"{workload}.{m['name']}"]
            assert value["unit"] == m["unit"] and value["value"] > 0
        assert any(line.startswith(f"{workload} tick_samples ") for line in lines)
        assert any(line.startswith(f"{workload} trace_overhead ") for line in lines)


def test_traced_runs_compute_what_untraced_runs_compute(quick):
    _, out = quick
    runs = {r["workload"]: r for r in json.loads((out / "run.json").read_text())["runs"]}
    for workload in WORKLOADS:
        assert runs[workload]["traced"]["digest"] == runs[workload]["untraced"]["digest"]
    assert runs["fig1-skew-2proc"]["untraced"]["digest"] == runs["fig1-skew"]["untraced"]["digest"]


def test_trace_files(quick):
    _, out = quick
    layers = json.loads((out / "trace" / "layers.json").read_text())
    assert sorted(layers) == sorted(WORKLOADS)
    for workload, values in layers.items():
        for m in SPEC["per_layer"]:
            assert m["name"] in values, (workload, m["name"])
        # Self times of all spans add up to the traced wall time.
        assert 0.95 <= values["trace.coverage"] <= 1.0 + 1e-9, workload
    requests: dict = {}
    with open(out / "trace" / "spans.jsonl") as fh:
        for line in fh:
            span = json.loads(line)
            requests.setdefault(span["workload"], set()).add(span["request"])
    assert sorted(requests) == sorted(WORKLOADS)
    assert all(len(r) <= 300 for r in requests.values())


def _rings() -> set:
    shm = Path("/dev/shm")
    return set(shm.glob("repro-ring-*")) if shm.is_dir() else set()


def test_single_workload_runs_report_the_declared_metrics():
    # Not --quick: the set-up children of the sharded workload run too, and
    # every process must remove its shared-memory rings.
    before = _rings()
    e2e = _result(_run("--workload", "fig1-skew-2proc", "--seed", 2, "--trace", 0,
                       "--seconds", 0.5))
    assert sorted(e2e["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert not _rings() - before
    layers = _result(_run("--workload", "fig1-skew", "--seed", 2, "--trace", 1,
                          "--seconds", 0.5, "--quick"))
    assert sorted(layers["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig1-skew",
         "--seed", "0", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

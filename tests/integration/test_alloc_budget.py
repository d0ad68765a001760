"""Allocation budget: a steady-state tick performs zero numpy allocations.

DESIGN §9's contract, enforced end to end on the ``fig1-skew/fastjoin/8``
bench cell: after warm-up (queues at their high-water capacity, every
arena grown to its working set), a *steady* tick — backpressure-throttled
(no source emission), no monitor sample due, no migration, no window
rotation — must not allocate a single numpy array that survives the tick,
and must not grow any arena.

Measurement notes.  numpy >= 1.22 registers array-data allocations with
tracemalloc under ``np.lib.tracemalloc_domain``; a domain-filtered
snapshot diff therefore lists exactly the numpy buffers allocated in a
window that are still alive at its end.  A transient array allocated and
freed *within* a tick is invisible to snapshots, so the test additionally
bounds the all-domain peak delta per steady tick: Python-object churn
(report dataclasses, ndarray view headers, boxed floats) measures
~20-40 KB/tick on this cell, while the pre-arena hot path allocated
hundreds of KB of numpy scratch per tick — the 96 KB bound cleanly
separates the two regimes and fails loudly if wholesale numpy churn
returns.  The arena ``grows`` counters closing the loop are exact.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.bench.perf import BENCH_CASES, _build_runtime

WARMUP_TICKS = 600
MEASURED_TICKS = 200
PEAK_BUDGET = 96 * 1024


def _predict_steady(runtime) -> bool:
    """Will the next tick be a steady one?  (Pure reads, no stepping.)

    Steady = backpressure-throttled (so the sources stay silent), no
    monitor sample due (so no load table, no migration trigger), no
    window rotation, no elastic controller.  Every allocation those
    non-steady activities make is legitimate and excluded by design.
    """
    end = runtime.clock.now + runtime.clock.tick
    throttled = runtime.backpressure_max_queue is not None and any(
        len(inst.queue) > runtime.backpressure_max_queue
        for inst in runtime.instances
    )
    sample_due = any(
        end >= mon._next_sample for mon in runtime.monitors.values()
    )
    rotation_due = (
        runtime._next_rotation is not None and end >= runtime._next_rotation
    )
    return throttled and not sample_due and not rotation_due


def _all_arenas(runtime):
    arenas = [inst._arena for inst in runtime.instances]
    arenas.append(runtime._service._arena)
    arenas.append(runtime.dispatcher._arena)
    arenas.append(runtime.metrics._arena)
    arenas.append(runtime.metrics._reservoir._arena)
    return arenas


def _assert_steady_ticks_allocate_nothing(runtime):
    """Step MEASURED_TICKS ticks; every steady one must allocate no numpy
    memory that survives it, stay under the peak budget and grow no
    arena."""
    tracemalloc.start()
    try:
        np_filter = [
            tracemalloc.Filter(True, "*", domain=np.lib.tracemalloc_domain)
        ]
        arenas = _all_arenas(runtime)
        grows_before = sum(a.grows for a in arenas)

        n_steady = 0
        peak_violations = []
        numpy_leaks = []
        stretch_start = None  # snapshot opening the current steady stretch

        def close_stretch():
            nonlocal stretch_start
            if stretch_start is None:
                return
            end_snap = tracemalloc.take_snapshot().filter_traces(np_filter)
            diff = end_snap.compare_to(stretch_start, "lineno")
            numpy_leaks.extend(
                d for d in diff if d.size_diff > 0 or d.count_diff > 0
            )
            stretch_start = None

        for _ in range(MEASURED_TICKS):
            if _predict_steady(runtime):
                n_steady += 1
                if stretch_start is None:
                    stretch_start = tracemalloc.take_snapshot().filter_traces(
                        np_filter
                    )
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                runtime.step()
                peak_delta = tracemalloc.get_traced_memory()[1] - before
                if peak_delta > PEAK_BUDGET:
                    peak_violations.append(peak_delta)
            else:
                # Emission / monitor / migration ticks may allocate freely;
                # close the running steady stretch before letting one run.
                close_stretch()
                runtime.step()
        close_stretch()
    finally:
        tracemalloc.stop()

    # The cell must actually exercise the steady path, or the assertions
    # below are vacuous.  Backpressure throttles the large majority of
    # ticks on this saturated cell (>90% measured).
    assert n_steady >= MEASURED_TICKS // 2, (
        f"only {n_steady}/{MEASURED_TICKS} ticks were steady; "
        "the cell no longer saturates and the budget test lost its teeth"
    )
    assert not numpy_leaks, (
        "steady ticks allocated numpy buffers that survived the tick:\n"
        + "\n".join(str(d) for d in numpy_leaks[:10])
    )
    assert not peak_violations, (
        f"{len(peak_violations)} steady ticks exceeded the "
        f"{PEAK_BUDGET}B peak budget (max {max(peak_violations)}B): "
        "wholesale per-tick numpy churn is back"
    )
    assert sum(a.grows for a in arenas) == grows_before, (
        "an arena grew during the measured window; the warm-up no longer "
        "covers the steady-state working set"
    )


@pytest.mark.slow
@pytest.mark.integration
def test_steady_ticks_allocate_no_numpy_memory():
    case = next(c for c in BENCH_CASES if c.name == "fig1-skew/fastjoin/8")
    runtime = _build_runtime(case)
    for _ in range(WARMUP_TICKS):
        runtime.step()
    _assert_steady_ticks_allocate_nothing(runtime)


@pytest.mark.slow
@pytest.mark.integration
def test_steady_ticks_after_a_migration_allocate_nothing():
    """A migration hand-off pushes tuples out of order into the target's
    queue, and the source's pause overlaps every tuple queued before it
    ended.  Once the target has served that disordered region (its queue
    is ordered again) and the source has served those tuples, steady
    ticks are back to zero allocations and zero arena grows."""
    case = next(c for c in BENCH_CASES if c.name == "fig1-skew/fastjoin/8")
    runtime = _build_runtime(case)
    for _ in range(WARMUP_TICKS):
        runtime.step()
    monitor = runtime.monitors["R"]
    group = sorted(monitor.instances, key=lambda i: i.queue.probe_backlog)
    source, target = group[-1], group[0]
    event = monitor.executor.execute(
        runtime.clock.now, "R", source, target, monitor.selector,
        li_before=2.0,
    )
    runtime._qlen_valid = False
    # No balancing migration of the monitors' own afterwards: their pause
    # overlaps are legitimate rare-path work that could grow an arena.
    for mon in runtime.monitors.values():
        mon._next_sample = float("inf")
    assert event is not None
    assert not target.queue._monotonic, "the hand-off was not out of order"
    pause_end = source._pause_log[-1][1]

    def settled():
        head = source.queue.earliest_time()
        return target.queue._monotonic and (head is None or head >= pause_end)

    for _ in range(4_000):
        if settled():
            break
        runtime.step()
    assert settled(), "order never returned to the target"
    _assert_steady_ticks_allocate_nothing(runtime)


@pytest.mark.slow
@pytest.mark.integration
def test_arenas_reach_steady_state_quickly():
    """All arena growth happens in warm-up; 200 further ticks add zero."""
    case = next(c for c in BENCH_CASES if c.name == "fig1-skew/fastjoin/8")
    runtime = _build_runtime(case)
    for _ in range(WARMUP_TICKS):
        runtime.step()
    arenas = _all_arenas(runtime)
    grows = sum(a.grows for a in arenas)
    requests = sum(a.requests for a in arenas)
    for _ in range(MEASURED_TICKS):
        runtime.step()
    assert sum(a.grows for a in arenas) == grows
    # ... while the arenas keep being exercised (the counters are live).
    assert sum(a.requests for a in arenas) > requests

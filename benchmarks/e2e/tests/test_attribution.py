"""Layer attribution: time added inside one layer shows up in that layer.

A fixed busy-wait is added to every ``KeyedStore.match_counts`` call of a
short traced ``fig1-skew`` run.  At least 80% of the added time must land
in ``join.storage.match_counts.self_s``, and its parents' self times must
not absorb it.
"""

import time

import workloads
from tracer import Tracer, layer_targets, span_metrics

DELAY_S = 20e-6
SECONDS = 0.5


def _traced_run(delay: float) -> tuple[dict, str]:
    from repro.join.storage import KeyedStore

    original = KeyedStore.__dict__["match_counts"]
    if delay:
        def slow(self, *args, **kwargs):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < delay:
                pass
            return original(self, *args, **kwargs)

        KeyedStore.match_counts = slow
    tracer = Tracer()
    try:
        tracer.install(layer_targets())
        case = workloads.setup("fig1-skew", 0, SECONDS, quick=True)
        result = workloads.measure(case, SECONDS, tracer)
    finally:
        tracer.uninstall()
        KeyedStore.match_counts = original
    return span_metrics(tracer), result["digest"]


def test_injected_delay_lands_in_its_own_layer():
    base, base_digest = _traced_run(0.0)
    slow, slow_digest = _traced_run(DELAY_S)
    assert slow_digest == base_digest
    calls = slow["join.storage.match_counts.calls"]
    assert calls == base["join.storage.match_counts.calls"] > 1000
    injected = calls * DELAY_S
    gained = slow["join.storage.match_counts.self_s"] - base["join.storage.match_counts.self_s"]
    assert gained >= 0.8 * injected
    for parent in ("join.instance.step.self_s", "engine.runtime.step.self_s"):
        assert slow[parent] - base[parent] < 0.2 * injected, parent

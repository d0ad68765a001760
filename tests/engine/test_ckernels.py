"""Differential tests: the C service kernel vs the numpy service kernel.

The fused kernels in :mod:`repro.engine.ckernels` claim *bit-identical*
results to the numpy kernel (DESIGN §9).  These tests hold that claim to
byte equality, not approximate equality: the two kernels of
:mod:`repro.join.service` are called directly on identical inputs, and
whole join instances — one on each kernel — are driven through the same
workload.

Everything here is skipped when the kernels could not be built (no cffi or
no C compiler): in that configuration the numpy kernel is the only kernel
and the rest of the suite already covers it.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ckernels
from repro.engine.arena import Arena
from repro.engine.cost import IndexedCost, ScanCost
from repro.engine.tuples import OP_PROBE, OP_STORE, Batch
from repro.join.instance import JoinInstance
from repro.join.service import (
    _PSK_C_CAP,
    _prior_same_key_stores,
    select_kernel,
    service_numpy,
)

pytestmark = pytest.mark.skipif(
    not ckernels.available(), reason="C kernels unavailable (no cffi/cc)"
)


def _c_kernel(cost_model):
    name, kernel = select_kernel(cost_model)
    assert name == "c", "C kernels reported available but not selected"
    return kernel


# --------------------------------------------------------------------- #
# psk_correct (via the C kernel's same-key correction)
# --------------------------------------------------------------------- #


def _serve(kernel, keys, mask, match, arena, bounds, credit=np.inf):
    """One kernel call on a probe-carrying chunk over fresh scratch."""
    n = keys.shape[0]
    batch = Batch(
        keys=keys,
        times=np.zeros(n),
        ops=np.where(mask, OP_STORE, OP_PROBE).astype(np.int8),
    )
    fblk = np.zeros(6 * n)
    iblk = np.zeros(3 * n, dtype=np.int64)
    bblk = np.zeros(2 * n, dtype=bool)
    bblk[:n] = mask
    inst = SimpleNamespace(
        cost_model=IndexedCost(), store=SimpleNamespace(total=0),
        capacity=1_000.0, latency_offset=0.0, _arena=arena,
    )
    out = kernel(inst, batch, int(mask.sum()), match, bounds, credit, 0.0,
                 fblk, iblk, bblk)
    return out, fblk, bblk


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 12), st.booleans()), min_size=1, max_size=400
    ),
    base=st.integers(0, 50),
)
def test_psk_correct_matches_reference(ops, base):
    """C counting pass == reference prefix count, for any chunk shape."""
    keys = np.array([k for k, _ in ops], dtype=np.int64)
    mask = np.array([s for _, s in ops])
    match = np.full(keys.shape[0], base, dtype=np.int64)
    expected = match + _prior_same_key_stores(keys, mask)
    _serve(_c_kernel(IndexedCost()), keys, mask, match, Arena(),
           (int(keys.min()), int(keys.max())))
    np.testing.assert_array_equal(match, expected)


def test_psk_counter_left_all_zero():
    """The kernel's dense counter is restored to zero between calls."""
    arena = Arena()
    keys = np.array([3, 3, 7, 3, 7], dtype=np.int64)
    mask = np.array([True, True, True, False, True])
    match = np.zeros(5, dtype=np.int64)
    _serve(_c_kernel(IndexedCost()), keys, mask, match, arena, (3, 7))
    cnt = arena.zeros("psk_cnt", 8, np.int64)
    assert not cnt.any(), "counter buffer must be all-zero after a call"


# --------------------------------------------------------------------- #
# the two kernels, called directly
# --------------------------------------------------------------------- #


@st.composite
def _chunks(draw):
    """A service chunk and everything a kernel call reads besides it."""
    n = draw(st.integers(1, 300))
    shape = draw(st.sampled_from(["pure-store", "pure-probe", "mixed"]))
    if shape == "pure-store":
        mask = np.ones(n, dtype=bool)
    elif shape == "pure-probe":
        mask = np.zeros(n, dtype=bool)
    else:
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    # Small dense keys (the C same-key pass), keys at or past its dense
    # counter cap, and negative keys (both on the numpy correction).
    lo = draw(st.sampled_from([0, _PSK_C_CAP - 8, 1 << 40, -50]))
    span = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    keys = lo + rng.integers(0, span, n)
    match = rng.integers(0, 30, n)
    if draw(st.booleans()):
        cost_model = ScanCost(
            store_cost=draw(st.floats(0.1, 3.0)),
            probe_base=draw(st.floats(0.0, 3.0)),
            scan_coeff=draw(st.floats(1e-4, 0.1)),
            emit_cost=draw(st.floats(0.0, 0.2)),
        )
    else:
        cost_model = IndexedCost(
            store_cost=draw(st.floats(0.1, 3.0)),
            probe_base=draw(st.floats(0.0, 3.0)),
            emit_cost=draw(st.floats(0.0, 0.2)),
        )
    now = draw(st.floats(0.0, 100.0))
    times = now + rng.uniform(-1.0, 0.05, n)  # some arrive mid-tick
    if draw(st.booleans()):
        times.sort()
    return dict(
        keys=keys,
        mask=mask,
        match=None if shape == "pure-store" else match,
        # The queue's push-time bounds are conservative: possibly wider.
        bounds=(int(keys.min()) - draw(st.integers(0, 3)),
                int(keys.max()) + draw(st.integers(0, 3))),
        times=times,
        cost_model=cost_model,
        store_total=draw(st.integers(0, 10_000)),
        capacity=draw(st.floats(10.0, 1e6)),
        latency_offset=draw(st.sampled_from([0.0, 0.012, 0.25])),
        now=now,
        # Fraction of the chunk's full cost, or the exact prefix sum at a
        # position (the credit-equals-boundary case).
        cut=draw(st.one_of(st.floats(1e-3, 1.5), st.integers(0, n - 1))),
    )


def _call(kernel, chunk, credit):
    """One kernel call on private copies: (every output byte, latencies)."""
    n = chunk["keys"].shape[0]
    keys = chunk["keys"].copy()
    match = None if chunk["match"] is None else chunk["match"].copy()
    batch = Batch(
        keys=keys,
        times=chunk["times"].copy(),
        ops=np.where(chunk["mask"], OP_STORE, OP_PROBE).astype(np.int8),
    )
    fblk = np.zeros(6 * n)
    iblk = np.zeros(3 * n, dtype=np.int64)
    bblk = np.zeros(2 * n, dtype=bool)
    bblk[:n] = chunk["mask"]
    inst = SimpleNamespace(
        cost_model=chunk["cost_model"],
        store=SimpleNamespace(total=chunk["store_total"]),
        capacity=chunk["capacity"],
        latency_offset=chunk["latency_offset"],
        _arena=Arena(),
    )
    out = kernel(inst, batch, int(chunk["mask"].sum()), match, chunk["bounds"],
                 credit, chunk["now"], fblk, iblk, bblk)
    n_take = out[0]
    latencies = fblk[n : n + n_take]
    return (
        tuple(repr(v) for v in out),
        None if match is None else match.tobytes(),
        fblk[:n_take].tobytes(),  # comp_service
        latencies.tobytes(),
    ), latencies


@settings(max_examples=300, deadline=None)
@given(chunk=_chunks())
def test_service_kernels_byte_identical(chunk):
    """``service_c`` and ``service_numpy`` agree byte for byte on every
    output: the taken/stored/result/spent scalars, the corrected match
    counts, the service components and the latencies."""
    # The chunk's exact cost prefix sums: at unit capacity, zero arrival
    # times, ``now`` and offset, each latency is its prefix sum.
    _, cum = _call(service_numpy, {
        **chunk, "capacity": 1.0, "times": np.zeros_like(chunk["times"]),
        "now": 0.0, "latency_offset": 0.0,
    }, np.inf)
    cut = chunk["cut"]
    # A fraction of the full cost cuts into the chunk (one overdraft
    # tuple); a position's prefix sum puts the credit on a boundary.
    credit = cum[-1] * cut if isinstance(cut, float) else cum[cut]
    credit = max(float(credit), 1e-9)
    got, _ = _call(_c_kernel(chunk["cost_model"]), chunk, credit)
    want, _ = _call(service_numpy, chunk, credit)
    assert got == want


# --------------------------------------------------------------------- #
# whole instances, one on each kernel
# --------------------------------------------------------------------- #


class _NumpyScanCost(ScanCost):
    """A subclass: kernel selection is an exact type check, so it serves on
    the numpy kernel with the very same formula."""


class _NumpyIndexedCost(IndexedCost):
    pass


def _twin_instances(cost_model=None, **kwargs):
    """One instance on the C kernel and one on the numpy kernel."""
    cost_model = cost_model if cost_model is not None else ScanCost()
    twin = (_NumpyIndexedCost if type(cost_model) is IndexedCost
            else _NumpyScanCost)(**vars(cost_model))
    a = JoinInstance(0, cost_model=cost_model, **kwargs)
    b = JoinInstance(0, cost_model=twin, **kwargs)
    assert (a.service_kernel, b.service_kernel) == ("c", "numpy")
    return a, b


def _drive(inst, batches, dt=0.05, n_steps=None):
    """Feed batches, stepping after each; return per-step report snapshots."""
    out = []
    now = 0.0
    for batch in batches:
        inst.enqueue(batch)
        for _ in range(n_steps or 1):
            rep = inst.step(now, dt)
            out.append(
                (
                    rep.n_processed,
                    rep.n_stored,
                    rep.n_probed,
                    rep.n_results,
                    rep.work_units,
                    rep.latencies.tobytes(),
                    None
                    if rep.comp_service is None
                    else rep.comp_service.tobytes(),
                )
            )
            now += dt
    return out


def _random_batches(seed, n_batches=8, size=200, key_hi=40, t_span=0.3):
    rng = np.random.default_rng(seed)
    batches = []
    t0 = 0.0
    for _ in range(n_batches):
        n = int(rng.integers(1, size))
        keys = rng.integers(0, key_hi, n).astype(np.int64)
        ops = np.where(
            rng.random(n) < 0.4, OP_STORE, OP_PROBE
        ).astype(np.int8)
        times = np.sort(rng.uniform(t0, t0 + t_span, n))
        batches.append(Batch(keys=keys, times=times, ops=ops))
        t0 += t_span / 4
    return batches


@pytest.mark.parametrize("tracking", [True, False])
@pytest.mark.parametrize(
    "kwargs",
    [
        {},  # ScanCost, ample capacity
        {"capacity": 800.0},  # credit-limited: overdraft boundary tuples
        {"cost_model": IndexedCost()},
        {"cost_model": ScanCost(emit_cost=0.03), "latency_offset": 0.012},
        {"window_subwindows": 4},
    ],
    ids=["scan", "credit-limited", "indexed", "offset", "windowed"],
)
def test_step_service_matches_numpy(kwargs, tracking):
    """Full step reports are byte-identical between the two kernels, with
    and without the per-key result-tracking wrapper around them."""
    a, b = _twin_instances(**kwargs)
    if tracking:
        a.enable_result_tracking()
        b.enable_result_tracking()
    batches = _random_batches(seed=17)
    got = _drive(a, batches, n_steps=3)
    want = _drive(b, batches, n_steps=3)
    assert got == want
    assert a.total_results == b.total_results
    assert a.store.total == b.store.total
    assert a._work_credit == b._work_credit
    if tracking:
        counts = a.result_counts_snapshot()
        assert counts == b.result_counts_snapshot()
        assert sum(counts.values()) == a.total_results


def test_step_service_pure_chunks():
    """Pure-store and pure-probe chunks agree across both kernels."""
    a, b = _twin_instances()
    n = 300
    keys = np.arange(n, dtype=np.int64) % 11
    stores = Batch(
        keys=keys,
        times=np.linspace(0.0, 0.01, n),
        ops=np.full(n, OP_STORE, dtype=np.int8),
    )
    probes = Batch(
        keys=keys,
        times=np.linspace(0.02, 0.03, n),
        ops=np.full(n, OP_PROBE, dtype=np.int8),
    )
    got = _drive(a, [stores, probes])
    want = _drive(b, [stores, probes])
    assert got == want


def test_disable_env_falls_back(monkeypatch):
    """REPRO_NO_CKERNELS short-circuits the loader without importing cffi."""
    monkeypatch.setenv("REPRO_NO_CKERNELS", "1")
    import importlib

    mod = importlib.reload(ckernels)
    try:
        assert mod.lib is None and not mod.available()
        assert select_kernel(ScanCost())[0] == "numpy"
    finally:
        monkeypatch.delenv("REPRO_NO_CKERNELS")
        importlib.reload(ckernels)
    assert ckernels.available()

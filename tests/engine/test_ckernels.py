"""Differential tests: the C service pass vs its numpy reference.

The C kernel in :mod:`repro.engine.ckernels` claims *bit-identical*
results to the numpy reference of the service pass (DESIGN §9).  These
tests hold that claim to byte equality, not approximate equality: whole
service tables over random multi-instance states are served once on each
kernel and every column, report, queue and store compared, and whole join
instances — one on each kernel — are driven through the same workload.

Everything here is skipped when the kernel could not be built (no cffi or
no C compiler): in that configuration the numpy reference is the only
kernel and the rest of the suite already covers it.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ckernels
from repro.engine.columns import (
    FL_MIG,
    FL_OBS,
    FL_REC,
    FL_TRACK,
    FL_WAL,
    I_MODEL,
    I_QGEN_SEEN,
    I_STORE,
    PSK_CAP,
    R_FLAGS,
    R_N,
    R_OFF,
    R_SEG,
    R_STORED,
    R_TAKE,
    S_GEN,
)
from repro.engine.cost import IndexedCost, ScanCost
from repro.engine.tuples import OP_PROBE, OP_STORE, Batch
from repro.join.instance import JoinInstance
from repro.join.service import ServiceTable, _prior_same_key_stores, select_kernel

pytestmark = pytest.mark.skipif(
    not ckernels.available(), reason="C kernels unavailable (no cffi/cc)"
)

#: flags of what was served, which both kernels set (the C kernel also
#: flags work it hands to Python; gather and growth follow the staging)
_SERVED_FLAGS = FL_MIG | FL_REC | FL_WAL | FL_TRACK | FL_OBS


class _NumpyScanCost(ScanCost):
    """A subclass: kernel selection is an exact type check, so it serves on
    the numpy kernel with the very same formula."""


class _NumpyIndexedCost(IndexedCost):
    pass


# --------------------------------------------------------------------- #
# the same-key correction
# --------------------------------------------------------------------- #


def _one_chunk(keys, mask, base):
    """Serve one chunk with ``base`` stored tuples per key on a fresh
    instance; return the table (its staged counts are corrected)."""
    inst = JoinInstance(0, capacity=1e9, cost_model=IndexedCost())
    for k in set(keys.tolist()):
        if base:
            inst.store.add(k, base)
    inst.enqueue(Batch(
        keys=keys, times=np.zeros(keys.shape[0]),
        ops=np.where(mask, OP_STORE, OP_PROBE).astype(np.int8),
    ))
    table = inst._table
    assert table.kernel == "c"
    table.run(0.0, 1.0)
    return table


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 12), st.booleans()), min_size=1, max_size=400
    ),
    base=st.integers(0, 50),
)
def test_psk_correct_matches_reference(ops, base):
    """The C counting pass == reference prefix count, for any chunk with
    a probe (a pure-store chunk gathers no counts)."""
    keys = np.array([k for k, _ in ops], dtype=np.int64)
    mask = np.array([s for _, s in ops])
    if mask.all():
        mask[-1] = False
    table = _one_chunk(keys, mask, base)
    n = keys.shape[0]
    assert table.rep_i[R_N, 0] == n
    expected = base + _prior_same_key_stores(keys, mask)
    np.testing.assert_array_equal(table._counts[:n], expected)


def test_psk_counter_left_all_zero():
    """The kernel's dense counter is restored to zero after every chunk."""
    keys = np.array([3, 3, 7, 3, 7], dtype=np.int64)
    mask = np.array([True, True, True, False, True])
    table = _one_chunk(keys, mask, 0)
    assert table.rep_i[R_TAKE, 0] == 5
    assert not table._cnt.any(), "counter table must be all-zero after a pass"


# --------------------------------------------------------------------- #
# whole passes over random multi-instance states
# --------------------------------------------------------------------- #


@st.composite
def _instance_specs(draw):
    model = draw(st.sampled_from(["scan", "indexed"]))
    window = draw(st.sampled_from([None, 3]))
    # Small dense keys (the C counter), keys straddling the counter cap
    # 2**21 (dense store, numpy correction), keys far past the dense table
    # (overflow store) and negative keys.
    key_lo = draw(st.sampled_from(
        [0, 0, 1 << 40, -50] + ([PSK_CAP - 8] if window is None else [])
    ))
    return dict(
        model=model,
        store_cost=draw(st.floats(0.1, 3.0)),
        # probe_base 0: the floor bound stages the whole visible chunk and
        # only the cost-bounded cut (or nothing) shortens it.
        probe_base=draw(st.one_of(st.floats(0.0, 3.0), st.just(0.0))),
        scan_coeff=draw(st.floats(1e-4, 0.1)),
        emit_cost=draw(st.one_of(
            st.floats(0.0, 0.2), st.sampled_from([0.0, 1.0])
        )),
        capacity=draw(st.floats(20.0, 20_000.0)),
        latency_offset=draw(st.sampled_from([0.0, 0.012])),
        window=window,
        tau=draw(st.sampled_from([0.0, 0.5, 2.0])),
        max_chunk=draw(st.sampled_from([7, 64, 100_000])),
        key_lo=key_lo,
        span=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**32 - 1)),
        state=draw(st.sampled_from(
            ["live", "live", "live", "paused", "resumed", "crashed", "empty"]
        )),
        wrap=draw(st.booleans()),
        unordered=draw(st.booleans()),
        pause_log=draw(st.sampled_from(
            [None, "migration", "recovery", "both", "many"]
        )),
        credit=draw(st.sampled_from([0.0, -3.0, 7.5])),
        stored=draw(st.integers(0, 200)),
        # a hot key: probes on it cost many times the floor
        hot=draw(st.sampled_from([0, 0, 3000])),
        # stored keys in the first quarter of the range only: probes of
        # the rest address keys outside the dense table until it grows
        narrow=draw(st.booleans()),
        tracking=draw(st.booleans()),
        wal=draw(st.booleans()),
    )


def _build(spec, slot, now, numpy):
    """One instance in the state ``spec`` describes (deterministic), on
    the numpy kernel when ``numpy``."""
    rng = np.random.default_rng(spec["seed"])
    if spec["model"] == "scan":
        cost = (_NumpyScanCost if numpy else ScanCost)(
            store_cost=spec["store_cost"], probe_base=spec["probe_base"],
            scan_coeff=spec["scan_coeff"], emit_cost=spec["emit_cost"],
        )
    else:
        cost = (_NumpyIndexedCost if numpy else IndexedCost)(
            store_cost=spec["store_cost"], probe_base=spec["probe_base"],
            emit_cost=spec["emit_cost"],
        )
    inst = JoinInstance(
        slot, capacity=spec["capacity"], cost_model=cost,
        window_subwindows=spec["window"], max_service_chunk=spec["max_chunk"],
        backlog_smoothing_tau=spec["tau"],
        latency_offset=spec["latency_offset"],
    )
    lo, span = spec["key_lo"], spec["span"]

    def keys(n):
        return (lo + rng.integers(0, span, n)).astype(np.int64)

    if spec["stored"]:
        if spec["narrow"]:
            inst.store.add_batch(
                (lo + rng.integers(0, max(1, span // 4), spec["stored"]))
                .astype(np.int64)
            )
        else:
            inst.store.add_batch(keys(spec["stored"]))
    if spec["hot"]:
        inst.store.add_batch(np.full(spec["hot"], lo, dtype=np.int64))
    queue = inst.queue
    if spec["wrap"]:
        # Move the ring's head so later pushes wrap around its end.
        queue.push_block(keys(40), now - 2.0, OP_STORE)
        queue.consume(40)
    if spec["state"] != "empty":
        t = now - 1.0
        for _ in range(int(rng.integers(1, 6))):
            t += float(rng.uniform(0.0, 0.3))
            op = OP_STORE if rng.random() < 0.4 else OP_PROBE
            queue.push_block(keys(int(rng.integers(1, 30))), t, op)
        if spec["unordered"]:
            n = int(rng.integers(1, 20))
            inst.enqueue(Batch(
                keys=keys(n), times=now + rng.uniform(-1.5, 0.2, n),
                ops=np.where(rng.random(n) < 0.5, OP_STORE, OP_PROBE)
                .astype(np.int8),
            ))
            # Behind the hand-off: a visible block, then one that is not
            # (a pass that serves everything visible then stops right at
            # the disorder watermark with tuples still queued).
            queue.push_block(keys(5), now - 0.5, OP_PROBE)
            queue.push_block(keys(5), now + 1.0, OP_STORE)
    if spec["state"] == "paused":
        inst.pause_until(now + 0.5)
    elif spec["state"] == "resumed":
        inst.pause_until(now - 0.1)
    if spec["pause_log"] == "many":
        # more than 8 intervals (the log prunes against the queue's
        # earliest time), both causes, contiguous same-cause merges
        t = now - 1.6
        for k in range(14):
            cause = "recovery" if k % 3 == 1 else "migration"
            inst.note_pause(t, t + 0.07, cause)
            t += 0.07 if k % 4 == 0 else 0.11
    elif spec["pause_log"]:
        first = "recovery" if spec["pause_log"] == "recovery" else "migration"
        inst.note_pause(now - 1.2, now - 0.6, first)
        if spec["pause_log"] == "both":
            inst.note_pause(now - 0.6, now - 0.05, "recovery")
    inst._work_credit = spec["credit"]
    if spec["tracking"]:
        inst.enable_result_tracking()
    if spec["wal"] or spec["state"] == "crashed":
        ft = SimpleNamespace(crashed=spec["state"] == "crashed", wal=[])
        ft.record_stores = ft.wal.append
        inst.attach_checkpointer(ft)
    return inst


def _cells(a):
    """The nonzero cells of ``a`` and their values, whatever its width."""
    nz = np.nonzero(a)
    return tuple(x.tobytes() for x in nz) + (a[nz].tobytes(),)


def _snapshot(table):
    """Every byte of served state a pass leaves behind.  Not the pointer
    rows nor the cost model's type code (the numpy twin's is a subclass),
    and nothing that follows only from how much the plan staged — the C
    plan cuts each chunk where a lower bound of its price reaches the
    credit, the numpy reference stages the floor-bounded chunk: chunk
    lengths, offsets and store counts, the gather and growth flags, the
    stores' generations and the capacity of their tables."""
    ri, rf = table.rep_i, table.rep_f
    served = np.flatnonzero(ri[R_TAKE] > 0)
    out = [
        np.delete(table.ints[:I_QGEN_SEEN], [I_MODEL, I_STORE + S_GEN],
                  axis=0).tobytes(),
        table.floats.tobytes(),
        ri[R_TAKE].tobytes(),
        (ri[R_FLAGS] & _SERVED_FLAGS).tobytes(),
        ri[[R_STORED, R_SEG]][:, served].tobytes(),
        rf[:, served].tobytes(),
        table.lat[: table.n_served].tobytes(),
        table.comp[: table.n_served].tobytes(),
        (table.qlen_sum, table.qlen_max, table.n_served),
    ]
    for slot in served.tolist():
        o, take = int(ri[R_OFF, slot]), int(ri[R_TAKE, slot])
        if ri[R_STORED, slot] < take:
            out.append(table._counts[o : o + take].tobytes())  # corrected
        rep = table.report(slot)
        out.append(tuple(
            None if a is None else a.tobytes()
            for a in (rep.comp_migration, rep.comp_recovery)
        ))
    for inst in table.instances:
        q = inst.queue
        out.append(tuple(a.tobytes() for a in q._live()))
        keys, counts = inst.store.nonzero_counts()
        out.append((keys.tobytes(), counts.tobytes()))
        if inst.store is not inst._keyed:
            out.append(_cells(inst.store._ring))
        if inst.checkpointer is not None:
            out.append(tuple(a.tobytes() for a in inst.checkpointer.wal))
        if inst.result_tracking:
            out.append(sorted(inst.result_counts_snapshot().items()))
    return out


@settings(max_examples=200, deadline=None)
@given(
    specs=st.lists(_instance_specs(), min_size=1, max_size=3),
    now=st.floats(1.0, 3.0),
    dt=st.sampled_from([0.01, 0.025, 0.1]),
    ticks=st.integers(1, 3),
)
def test_service_kernels_byte_identical(specs, now, dt, ticks):
    """One pass per tick over several instances leaves byte-identical
    columns, reports, latencies, components, pause overlaps, corrected
    counts, queues, stores, WALs and result tallies on the C kernel and the
    numpy reference: idle, paused and crashed instances; pure-store,
    pure-probe and mixed chunks; credit cutoffs; the C plan's cost-bounded
    cut (hot keys, per-match and scan costs, a zero probe base, keys
    outside the dense table, a binding max chunk) against the reference's
    uncut chunks; wrapped and unordered rings; pause logs of either or
    both causes, longer than the pruning threshold; keys at or past 2**21,
    past the dense table and negative."""
    twins = []
    for numpy in (False, True):
        insts = [_build(spec, slot, now, numpy)
                 for slot, spec in enumerate(specs)]
        twins.append(ServiceTable(insts))
    c_table, np_table = twins
    assert c_table.kernel == "c" and np_table.kernel == "numpy"
    for tick in range(ticks):
        t = now + tick * dt
        assert c_table.run(t, dt) == np_table.run(t, dt)
        assert _snapshot(c_table) == _snapshot(np_table)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    frac=st.one_of(st.floats(1e-3, 1.5), st.integers(0, 199)),
    scan=st.booleans(),
)
def test_credit_cutoff_at_exact_prefix_sums(n, seed, frac, scan):
    """A credit equal to a chunk's cost prefix sum (the boundary case of
    the cutoff) or any fraction of its total cost serves the same tuples
    on both kernels."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 20, n).astype(np.int64)
    ops = np.where(rng.random(n) < 0.4, OP_STORE, OP_PROBE).astype(np.int8)

    def instance(numpy=False):
        if scan:
            cost = _NumpyScanCost() if numpy else ScanCost()
        else:
            cost = _NumpyIndexedCost() if numpy else IndexedCost()
        inst = JoinInstance(0, capacity=1.0, cost_model=cost)
        inst.enqueue(Batch(keys=keys, times=np.zeros(n), ops=ops))
        return inst

    # The chunk's exact cost prefix sums: at unit capacity and zero
    # arrival times, each served tuple's latency is its prefix sum.
    probe = instance()
    probe._work_credit = 1e12
    cum = probe.step(0.0, 0.0).latencies.copy()
    credit = cum[-1] * frac if isinstance(frac, float) else cum[min(frac, n - 1)]
    credit = max(float(credit), 1e-9)
    reps = []
    for numpy in (False, True):
        inst = instance(numpy)
        inst._work_credit = credit
        inst._table.run(0.0, 0.0)
        reps.append(_snapshot(inst._table))
    assert reps[0] == reps[1]


# --------------------------------------------------------------------- #
# whole instances, one on each kernel
# --------------------------------------------------------------------- #


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
    and without per-key result tracking."""
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
        assert select_kernel(ScanCost()) == "numpy"
        assert ServiceTable([JoinInstance(0)]).kernel == "numpy"
    finally:
        monkeypatch.delenv("REPRO_NO_CKERNELS")
        importlib.reload(ckernels)
    assert ckernels.available()

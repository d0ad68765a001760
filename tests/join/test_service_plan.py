"""The C service plan's cost-bounded cut (DESIGN §9).

The C plan stages each chunk only up to the first tuple at which a lower
bound of its price prefix reaches the instance's credit.  The bound prices
probes at the dense table's count at chunk start; the served counts can
only be larger, so the cut must never change what a pass serves — only
how much it stages.  The numpy reference does not cut, so
``tests/engine/test_ckernels.py`` holds what the C pass serves to uncut
ground truth; these tests pin what each plan stages, when the cut is
skipped, and the staging waste on a skewed Fig. 1 runtime.
"""

import numpy as np
import pytest

from repro.bench.perf import BENCH_CASES, _build_runtime
from repro.engine import ckernels
from repro.engine.columns import I_COST_CUT, R_N, R_TAKE, RF_RESULTS
from repro.engine.cost import IndexedCost, ScanCost
from repro.engine.tuples import OP_PROBE
from repro.join.instance import JoinInstance

needs_c = pytest.mark.skipif(
    not ckernels.available(), reason="the cut is the C plan's"
)


class _SubclassIndexedCost(IndexedCost):
    """Served by the numpy reference (kernel selection is exact-type)."""


@pytest.mark.parametrize("cost_type", [IndexedCost, _SubclassIndexedCost])
def test_cut_stages_what_the_credit_buys(cost_type):
    """500 queued probes of a key with 1,000 stored tuples cost 101 each:
    a credit of 500 buys five.  The C plan stages five; the numpy
    reference stages the floor-bounded chunk (every operation costs at
    least 1: all 500 visible) and serves the same five."""
    inst = JoinInstance(
        0, capacity=1_000.0,
        cost_model=cost_type(store_cost=1.0, probe_base=1.0, emit_cost=0.1),
    )
    inst.store.add(3, 1_000)
    inst.queue.push_block(np.full(500, 3, dtype=np.int64), 0.0, OP_PROBE)
    table = inst._table
    assert table.run(0.0, 0.5) == 5
    assert table.rep_i[R_TAKE, 0] == 5
    assert table.rep_i[R_N, 0] == (5 if table.kernel == "c" else 500)
    assert table.rep_f[RF_RESULTS, 0] == 5_000.0


def test_cut_skipped_when_no_price_depends_on_the_chunk():
    inst = JoinInstance(0, cost_model=IndexedCost(emit_cost=0.0))
    assert inst._i[I_COST_CUT] == 0
    assert JoinInstance(1, cost_model=IndexedCost())._i[I_COST_CUT] == 1
    assert JoinInstance(2, cost_model=ScanCost())._i[I_COST_CUT] == 1


@needs_c
def test_staging_follows_service_on_a_skewed_runtime():
    """On the skewed Fig. 1 cell the C plan stages about what the pass
    serves: over 200 ticks after warm-up, at most 5% more (the floor
    bound alone staged several times as much)."""
    case = next(c for c in BENCH_CASES if c.name == "fig1-skew/fastjoin/8")
    runtime = _build_runtime(case)
    for _ in range(400):
        runtime.step()
    table = runtime._service
    staged = served = 0
    for _ in range(200):
        runtime.step()
        staged += int(table.rep_i[R_N].sum())
        served += table.n_served
    assert served > 10_000
    assert staged <= 1.05 * served

"""Every invariant guard must (a) stay silent on a healthy run and
(b) fire with a structured, replayable error when its invariant is
deliberately violated."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import RoutingTable
from repro.engine.metrics import MigrationEvent
from repro.engine.rng import hash_to_instance
from repro.errors import ValidationError
from repro.join.storage import DENSE_KEY_CAP, KeyedStore
from repro.systems.factory import build_system
from repro.validate import (
    GuardConfig,
    InvariantGuards,
    make_sources,
    validation_config,
)
from repro.validate.invariants import first_colocation_violation


def small_runtime(system="fastjoin", seed=2, ticks=120, attach=True):
    config = validation_config(seed=seed)
    r_source, s_source = make_sources("zipf", seed, tuples_per_stream=800)
    runtime = build_system(system, config, r_source, s_source)
    guards = InvariantGuards(
        seed=seed,
        context={"system": system, "workload": "zipf", "ticks": ticks},
    )
    if attach:
        runtime.attach_guards(guards)
    else:
        guards.bind(runtime)
    for _ in range(ticks):
        runtime.step()
    return runtime, guards


@pytest.fixture(scope="module")
def healthy():
    """One guarded healthy run shared by the violation tests (each test
    re-runs the specific check against tampered copies of its state)."""
    return small_runtime()


def test_healthy_run_is_silent(healthy):
    runtime, guards = healthy
    assert guards.checks_run == runtime.tick_index
    assert guards.violations == 0


def test_guard_config_rejects_bad_period():
    with pytest.raises(ValueError):
        GuardConfig(period=0)


def test_monotone_clock_violation():
    _, guards = small_runtime(ticks=5)
    with pytest.raises(ValidationError) as err:
        guards.check_monotone_clock(0.0)
    assert err.value.invariant == "monotone-clock"
    assert err.value.seed == 2


def test_nonnegative_load_violation():
    runtime, guards = small_runtime(ticks=5)
    runtime.instances[0].store._total = -5
    with pytest.raises(ValidationError) as err:
        guards.check_nonnegative_load(runtime)
    assert err.value.invariant == "nonnegative-load"


def test_li_bounds_violation():
    runtime, guards = small_runtime(ticks=5)
    runtime.monitors["R"].li_history.append((1.0, 0.5))
    with pytest.raises(ValidationError) as err:
        guards.check_li_bounds(runtime)
    assert err.value.invariant == "li-bounds"


def test_conservation_violation():
    runtime, guards = small_runtime(ticks=30)
    runtime.instances[0].total_stored += 1
    with pytest.raises(ValidationError) as err:
        guards.check_conservation(runtime)
    assert err.value.invariant == "conservation"
    assert err.value.tick == runtime.tick_index


def test_colocation_split_storage_violation():
    runtime, guards = small_runtime(ticks=30)
    group = runtime.dispatcher.groups["R"]
    donor = next(inst for inst in group if inst.store.total > 0)
    key = next(iter(donor.store.counts_snapshot()))
    other = next(inst for inst in group if inst is not donor)
    other.store.merge_counts({key: 1})
    with pytest.raises(ValidationError) as err:
        guards.check_colocation(runtime)
    assert err.value.invariant == "colocation"


def test_colocation_routing_mismatch_violation():
    runtime, guards = small_runtime(ticks=30)
    group = runtime.dispatcher.groups["R"]
    donor = next(inst for inst in group if inst.store.total > 0)
    key = next(iter(donor.store.counts_snapshot()))
    other = next(inst for inst in group if inst is not donor)
    runtime.dispatcher.routing["R"].install([key], other.instance_id)
    with pytest.raises(ValidationError) as err:
        guards.check_colocation(runtime)
    assert err.value.invariant == "colocation"


def _fake_event(time, li_before, source=0, target=1):
    return MigrationEvent(
        time=time,
        side="R",
        source=source,
        target=target,
        n_keys=1,
        n_tuples=10,
        duration=0.05,
        li_before=li_before,
        li_after_estimate=1.0,
        keys=(1,),
    )


def test_hysteresis_below_theta_violation():
    runtime, guards = small_runtime(ticks=10)
    runtime.metrics._migrations.append(_fake_event(100.0, li_before=0.1))
    with pytest.raises(ValidationError) as err:
        guards.check_hysteresis(runtime)
    assert err.value.invariant == "hysteresis"


def test_hysteresis_cooldown_violation():
    runtime, guards = small_runtime(ticks=10)
    theta = runtime.monitors["R"].theta
    runtime.metrics._migrations.append(_fake_event(100.0, li_before=theta + 1))
    guards.check_hysteresis(runtime)  # first event is fine
    runtime.metrics._migrations.append(
        _fake_event(100.0001, li_before=theta + 1)
    )
    with pytest.raises(ValidationError) as err:
        guards.check_hysteresis(runtime)
    assert err.value.invariant == "hysteresis"
    assert "cooldown" in str(err.value)


def test_hysteresis_self_migration_violation():
    runtime, guards = small_runtime(ticks=10)
    theta = runtime.monitors["R"].theta
    runtime.metrics._migrations.append(
        _fake_event(200.0, li_before=theta + 1, source=2, target=2)
    )
    with pytest.raises(ValidationError) as err:
        guards.check_hysteresis(runtime)
    assert "source == target" in str(err.value)


def test_deep_consistency_violation():
    runtime, guards = small_runtime(ticks=30)
    inst = runtime.instances[0]
    inst.queue._n_probes += 3
    with pytest.raises(ValidationError) as err:
        guards.check_deep_consistency(runtime)
    assert err.value.invariant == "deep-consistency"


def test_disabled_guards_stay_silent():
    runtime, guards = small_runtime(ticks=10)
    runtime.instances[0].total_stored += 1
    quiet = InvariantGuards(
        seed=2, config=GuardConfig(conservation=False, deep_consistency=False)
    )
    quiet.bind(runtime)
    quiet.after_tick(runtime, runtime.clock.now)  # must not raise


def test_error_carries_replay_metadata():
    runtime, guards = small_runtime(ticks=8)
    runtime.instances[0].total_stored += 1
    with pytest.raises(ValidationError) as err:
        guards.check_conservation(runtime)
    e = err.value
    assert e.seed == 2
    assert e.tick == runtime.tick_index
    assert e.context["system"] == "fastjoin"
    assert e.repro_command is not None
    assert "validate" in e.repro_command


def test_result_tracking_disabled_raises():
    from repro.errors import ConfigError
    from repro.join.instance import JoinInstance

    inst = JoinInstance(0)
    assert not inst.result_tracking
    with pytest.raises(ConfigError):
        inst.result_counts_snapshot()
    inst.enable_result_tracking()
    assert inst.result_counts_snapshot() == {}


# --------------------------------------------------------------------- #
# the array colocation check against a per-key reference
# --------------------------------------------------------------------- #


def reference_first_violation(group, routing, n_instances):
    """The colocation scan written key by key with a dict."""
    seen = {}
    for inst in group:
        for key, count in inst.store.counts_snapshot().items():
            if count == 0:
                continue
            if key in seen:
                return (key, inst.instance_id, seen[key], None)
            seen[key] = inst.instance_id
    for key, holder in seen.items():
        override = routing.target_of(key)
        expected = (
            override
            if override is not None
            else int(hash_to_instance(np.array([key], dtype=np.int64),
                                      n_instances)[0])
        )
        if holder != expected:
            return (key, holder, None, expected)
    return None


#: small dense keys plus overflow keys (negative and beyond the dense cap)
COLOCATION_KEYS = st.sampled_from(list(range(16)) + [-7, DENSE_KEY_CAP + 3])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_instances=st.integers(2, 4))
def test_array_colocation_matches_per_key_reference(data, n_instances):
    """Random layouts: keys on their routed instance, misrouted, or split
    over two instances, under random routing overrides and instance-id
    orders; both checks name the same first violation."""
    routing = RoutingTable(n_instances)
    for key, target in data.draw(st.dictionaries(
        COLOCATION_KEYS, st.integers(0, n_instances - 1), max_size=5
    )).items():
        routing.install([key], target)

    def route(keys):
        return routing.apply(keys, hash_to_instance(keys, n_instances))

    ids = data.draw(st.permutations(range(n_instances)))
    group = [SimpleNamespace(instance_id=i, store=KeyedStore()) for i in ids]
    by_id = {inst.instance_id: inst for inst in group}
    for key in data.draw(st.lists(COLOCATION_KEYS, unique=True, max_size=8)):
        home = int(route(np.array([key], dtype=np.int64))[0])
        placement = data.draw(st.sampled_from(["home", "home", "misrouted",
                                               "split"]))
        holders = {home}
        if placement == "misrouted":
            holders = {data.draw(st.integers(0, n_instances - 1))}
        elif placement == "split":
            holders.add(data.draw(st.integers(0, n_instances - 1)))
        for holder in holders:
            by_id[holder].store.add(key, data.draw(st.integers(1, 3)))
    got = first_colocation_violation(group, route)
    want = reference_first_violation(group, routing, n_instances)
    assert (tuple(got) if got is not None else None) == want

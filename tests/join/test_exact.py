"""Completeness tests: every matching pair joined exactly once.

These tests fuzz the exact-semantics engine (same ordering rules as the
performance simulator) with random workloads and adversarial migration
timing — the paper's requirement 3 (section I) and the ordering argument
of section III-D.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MigrationError
from repro.join.exact import ExactBiclique, ExactTuple, exactly_once


class TestBasicJoin:
    def test_simple_match(self):
        b = ExactBiclique(2)
        b.ingest("R", key=5, now=0.0)
        b.ingest("S", key=5, now=0.0)
        b.drain(1.0)
        ok, msg = b.check_exactly_once()
        assert ok, msg
        assert b.n_pairs == 1

    def test_no_match_different_keys(self):
        b = ExactBiclique(2)
        b.ingest("R", key=1, now=0.0)
        b.ingest("S", key=2, now=0.0)
        b.drain(1.0)
        assert b.n_pairs == 0
        assert b.check_exactly_once()[0]

    def test_many_to_many(self):
        b = ExactBiclique(3)
        for _ in range(3):
            b.ingest("R", key=7, now=0.0)
        for _ in range(4):
            b.ingest("S", key=7, now=0.0)
        b.drain(1.0)
        ok, msg = b.check_exactly_once()
        assert ok, msg
        assert b.n_pairs == 12

    def test_interleaved_arrivals(self):
        b = ExactBiclique(2)
        for i in range(10):
            b.ingest("R" if i % 2 == 0 else "S", key=3, now=float(i))
            b.step(float(i))
        b.drain(20.0)
        ok, msg = b.check_exactly_once()
        assert ok, msg

    def test_dispatch_delay_does_not_break_completeness(self):
        b = ExactBiclique(2, dispatch_delay=0.5)
        for i in range(20):
            b.ingest("R", key=i % 3, now=float(i) * 0.1)
            b.ingest("S", key=i % 3, now=float(i) * 0.1)
        b.drain(100.0)
        ok, msg = b.check_exactly_once()
        assert ok, msg


class TestMigrationCompleteness:
    def test_migration_of_idle_key(self):
        b = ExactBiclique(2)
        b.ingest("R", key=1, now=0.0)
        b.drain(1.0)
        src = b._route("R", 1)
        b.migrate("R", src, 1 - src, {1}, now=1.0)
        b.ingest("S", key=1, now=2.0)
        b.drain(3.0)
        ok, msg = b.check_exactly_once()
        assert ok, msg

    def test_migration_with_inflight_tuples(self):
        """Tuples queued (not yet visible) at the source when migration
        fires must still join exactly once."""
        b = ExactBiclique(2, dispatch_delay=1.0)
        b.ingest("R", key=1, now=0.0)
        b.ingest("S", key=1, now=0.1)    # both still invisible at t=0.5
        src = b._route("R", 1)
        b.migrate("R", src, 1 - src, {1}, now=0.5, duration=2.0)
        b.ingest("R", key=1, now=0.6)    # dispatched after routing update
        b.ingest("S", key=1, now=0.7)
        b.drain(10.0)
        ok, msg = b.check_exactly_once()
        assert ok, msg
        assert b.n_pairs == 4  # 2 R x 2 S

    def test_migration_back_and_forth(self):
        b = ExactBiclique(2)
        b.ingest("R", key=9, now=0.0)
        b.drain(0.5)
        src = b._route("R", 9)
        b.migrate("R", src, 1 - src, {9}, now=1.0)
        b.ingest("S", key=9, now=1.5)
        b.migrate("R", 1 - src, src, {9}, now=2.0)
        b.ingest("S", key=9, now=2.5)
        b.drain(10.0)
        ok, msg = b.check_exactly_once()
        assert ok, msg

    def test_same_instance_migration_rejected(self):
        b = ExactBiclique(2)
        with pytest.raises(MigrationError):
            b.migrate("R", 0, 0, {1}, now=0.0)

    def test_both_sides_migrated(self):
        b = ExactBiclique(2)
        for i in range(5):
            b.ingest("R", key=4, now=float(i))
            b.ingest("S", key=4, now=float(i) + 0.5)
        b.step(2.0)
        r_src = b._route("R", 4)
        s_src = b._route("S", 4)
        b.migrate("R", r_src, 1 - r_src, {4}, now=2.0, duration=0.5)
        b.migrate("S", s_src, 1 - s_src, {4}, now=2.1, duration=0.5)
        b.drain(20.0)
        ok, msg = b.check_exactly_once()
        assert ok, msg
        assert b.n_pairs == 25


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n_instances=st.sampled_from([2, 3, 4]),
    delay=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_exactly_once_under_random_schedules(data, n_instances, delay):
    """Fuzz: random tuple arrivals, random step times, random migrations —
    the pair multiset must always be exactly the per-key cross product."""
    b = ExactBiclique(n_instances, dispatch_delay=delay)
    n_events = data.draw(st.integers(5, 60))
    now = 0.0
    for _ in range(n_events):
        now += data.draw(st.floats(0.0, 0.5))
        action = data.draw(st.sampled_from(["R", "S", "step", "migrate"]))
        if action in ("R", "S"):
            key = data.draw(st.integers(0, 5))
            b.ingest(action, key, now)
        elif action == "step":
            b.step(now)
        else:
            side = data.draw(st.sampled_from(["R", "S"]))
            source = data.draw(st.integers(0, n_instances - 1))
            target = data.draw(st.integers(0, n_instances - 1))
            if source == target:
                continue
            keys = set(data.draw(st.lists(st.integers(0, 5), max_size=3)))
            duration = data.draw(st.floats(0.0, 1.0))
            b.migrate(side, source, target, keys, now, duration)
    b.drain(now + 10.0)
    ok, msg = b.check_exactly_once()
    assert ok, msg


# --------------------------------------------------------------------- #
# the array verdict against a per-pair dict model
# --------------------------------------------------------------------- #


def reference_verdict(keys_r, keys_s, pair_r, pair_s):
    """The exactly-once check written pair by pair with dicts."""
    by_key = defaultdict(list)
    for uid, key in enumerate(keys_r):
        by_key[key].append(uid)
    expected = {}
    for s_uid, key in enumerate(keys_s):
        for r_uid in by_key.get(key, ()):
            expected[(r_uid, s_uid)] = 1
    observed = defaultdict(int)
    for p in zip(pair_r, pair_s):
        observed[p] += 1
    missing = [p for p in expected if p not in observed]
    extra = [p for p in observed if p not in expected]
    dupes = [p for p, c in observed.items() if c > 1]
    if missing:
        return False, f"missing joins: {missing[:5]} (+{len(missing) - 5 if len(missing) > 5 else 0})"
    if extra:
        return False, f"spurious joins: {extra[:5]}"
    if dupes:
        return False, f"duplicate joins: {dupes[:5]}"
    return True, "exactly-once"


@st.composite
def pair_logs(draw):
    """Uid-indexed keys plus a pair log: the exact join, shuffled, then
    damaged by missing, duplicate, spurious and out-of-range pairs."""
    keys_r = draw(st.lists(st.integers(0, 4), max_size=10))
    keys_s = draw(st.lists(st.integers(0, 4), max_size=10))
    pairs = [
        (r, s)
        for s, ks in enumerate(keys_s)
        for r, kr in enumerate(keys_r)
        if kr == ks
    ]
    pairs = draw(st.permutations(pairs))
    n_r, n_s = len(keys_r), len(keys_s)
    for damage in draw(st.lists(
        st.sampled_from(["missing", "duplicate", "spurious", "out_of_range"]),
        max_size=4,
    )):
        if damage == "missing" and pairs:
            pairs.pop(draw(st.integers(0, len(pairs) - 1)))
        elif damage == "duplicate" and pairs:
            at = draw(st.integers(0, len(pairs)))
            pairs.insert(at, draw(st.sampled_from(pairs)))
        elif damage == "spurious" and n_r and n_s:
            r = draw(st.integers(0, n_r - 1))
            s = draw(st.integers(0, n_s - 1))
            if keys_r[r] != keys_s[s]:
                pairs.insert(draw(st.integers(0, len(pairs))), (r, s))
        elif damage == "out_of_range":
            r = draw(st.sampled_from([-1, n_r, n_r + 3, 0]))
            s = draw(st.sampled_from([-2, n_s, 0]))
            if not (0 <= r < n_r and 0 <= s < n_s):
                pairs.insert(draw(st.integers(0, len(pairs))), (r, s))
    pair_r = [r for r, _ in pairs]
    pair_s = [s for _, s in pairs]
    return keys_r, keys_s, pair_r, pair_s


@settings(max_examples=300, deadline=None)
@given(pair_logs())
def test_array_verdict_matches_dict_model(logs):
    """Same verdict and same message as the per-pair dict check."""
    assert exactly_once(*logs) == reference_verdict(*logs)


def test_array_verdict_reports_each_failure_kind():
    keys_r, keys_s = [1, 1, 2], [1, 2]
    good_r, good_s = [0, 1, 2], [0, 0, 1]
    assert exactly_once(keys_r, keys_s, good_r, good_s) == (True, "exactly-once")
    assert exactly_once(keys_r, keys_s, good_r[:2], good_s[:2]) == (
        False, "missing joins: [(2, 1)] (+0)")
    assert exactly_once(keys_r, keys_s, good_r + [2], good_s + [0]) == (
        False, "spurious joins: [(2, 0)]")
    assert exactly_once(keys_r, keys_s, good_r + [7], good_s + [0]) == (
        False, "spurious joins: [(7, 0)]")
    assert exactly_once(keys_r, keys_s, good_r + [1], good_s + [0]) == (
        False, "duplicate joins: [(1, 0)]")


# --------------------------------------------------------------------- #
# block ingest == per-key ingest
# --------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n_instances=st.sampled_from([2, 3, 4]),
    delay=st.sampled_from([0.0, 0.3]),
)
def test_ingest_many_equals_per_key_ingest(data, n_instances, delay):
    """One block call leaves the same queues, uids and emitted keys as one
    call per key, with routing overrides installed in between."""
    a = ExactBiclique(n_instances, dispatch_delay=delay)
    b = ExactBiclique(n_instances, dispatch_delay=delay)
    now = 0.0
    for _ in range(data.draw(st.integers(1, 8))):
        now += 0.1
        if data.draw(st.booleans()):
            side = data.draw(st.sampled_from(["R", "S"]))
            source = data.draw(st.integers(0, n_instances - 1))
            target = (source + 1) % n_instances
            keys = set(data.draw(st.lists(st.integers(0, 9), max_size=4)))
            for engine in (a, b):
                engine.migrate(side, source, target, keys, now, 0.05)
        stream = data.draw(st.sampled_from(["R", "S"]))
        block = data.draw(st.lists(st.integers(0, 9), max_size=12))
        extra = data.draw(st.sampled_from([0.0, 0.2]))
        got = a.ingest_many(stream, np.array(block, dtype=np.int64), now, extra)
        want = [b.ingest(stream, k, now, extra_delay=extra) for k in block]
        assert list(got) == want
    assert a.uid_keys == b.uid_keys
    for side in ("R", "S"):
        assert [list(i.queue) for i in a.groups[side]] == [
            list(i.queue) for i in b.groups[side]
        ]
    a.drain(now + 10.0)
    b.drain(now + 10.0)
    assert (a.pair_r, a.pair_s) == (b.pair_r, b.pair_s)
    assert a.check_exactly_once() == (True, "exactly-once")

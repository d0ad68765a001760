"""Adversarial schedule fuzzing of the migration protocol.

The migration races the paper argues away (double joins, lost joins,
section III-D) only show up under *specific interleavings* — a migration
landing in the middle of a burst, the same key bouncing between instances
back-to-back, a migration colliding with sub-window eviction.  Random
workloads almost never produce those on their own, so this module
generates them deliberately and deterministically:

- :class:`ScheduleFuzzer` expands one seed into a reproducible action
  schedule drawn from a small adversarial vocabulary (``burst``,
  ``half-burst / migrate / half-burst``, ``migrate-back``,
  ``zero-benefit``, ``rotate``, ``settle``);
- :func:`run_oracle_fuzz` plays a schedule against the tuple-level
  :class:`~repro.join.exact.ExactBiclique` with the *real* GreedyFit /
  SAFit selectors choosing the migrated key sets, then asserts
  exactly-once.  With ``fault=...`` it instead plays against a
  deliberately broken protocol variant (:data:`FAULT_MODES`) and the
  caller asserts the check *fails* — proving the oracle has teeth;
- :func:`run_instance_fuzz` plays a schedule against a group of
  production :class:`~repro.join.instance.JoinInstance` workers wired to a
  real :class:`~repro.core.migration.MigrationExecutor`, checking tuple
  conservation, storage/routing colocation and pause accounting after
  every action;
- :func:`run_chaos_fuzz` draws a seeded random *fault plan* (crashes,
  failovers, batch delays/drops, mid-phase migration aborts —
  :func:`repro.faults.plan.random_fault_plan`) and runs the full
  differential harness under it, asserting the exact oracle's pair
  multiset still comes out equal — completeness under failure.

Every failure raises a :class:`~repro.errors.ValidationError` carrying the
seed and step, so ``repro.validate.replay`` can reproduce it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.migration import MigrationExecutor
from ..core.routing import RoutingTable
from ..core.selection.base import SelectionProblem
from ..core.selection.greedyfit import GreedyFit
from ..core.selection.safit import SAFit
from ..engine.cost import IndexedCost
from ..engine.rng import SeedSequenceFactory, hash_to_instance
from ..engine.tuples import Batch
from ..errors import ConfigError, ValidationError
from ..join.exact import ExactBiclique
from ..join.instance import JoinInstance
from .invariants import first_colocation_violation

__all__ = [
    "FAULT_MODES",
    "FuzzAction",
    "FuzzReport",
    "ScheduleFuzzer",
    "run_oracle_fuzz",
    "run_instance_fuzz",
    "run_chaos_fuzz",
    "run_elastic_fuzz",
]

#: deliberately broken migration variants the oracle must catch
FAULT_MODES = ("drop_queued", "duplicate_stored", "route_before_extract")

#: action kinds the fuzzer emits (the stateful tests reuse this vocabulary)
ACTION_KINDS = (
    "burst",          # emit a batch of tuples on one stream
    "migrate_mid",    # half a burst, migrate, then the other half
    "migrate_back",   # immediately migrate the same keys onward again
    "zero_benefit",   # ask the selector to move load *uphill* (must no-op)
    "rotate",         # expire the oldest sub-window (windowed runs only)
    "settle",         # advance time and let queues drain a little
)


@dataclass(frozen=True)
class FuzzAction:
    """One deterministic step of an adversarial schedule."""

    step: int
    kind: str
    stream: str = "R"          # burst stream ("R"/"S")
    keys: tuple[int, ...] = ()  # burst key sequence
    side: str = "R"            # migration side
    dt: float = 0.05           # settle duration


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    seed: int
    mode: str                  # "oracle" | "instance"
    selector: str
    fault: str | None = None
    n_actions: int = 0
    n_migrations: int = 0
    n_zero_benefit: int = 0
    n_pairs: int = 0
    ok: bool = True
    message: str = "ok"
    actions: list[FuzzAction] = field(default_factory=list)


class ScheduleFuzzer:
    """Seed-deterministic generator of adversarial schedules.

    The same ``(seed, n_actions)`` always yields the same schedule.  Keys
    are drawn from a small, heavily skewed universe so the selectors see
    realistic hot/cold structure and the same keys keep colliding with
    migrations.
    """

    def __init__(
        self,
        seed: int,
        *,
        n_keys: int = 32,
        burst: int = 60,
        hot_fraction: float = 0.5,
    ) -> None:
        if n_keys < 2 or burst < 2:
            raise ConfigError("fuzzer needs n_keys >= 2 and burst >= 2")
        self.seed = seed
        self.n_keys = n_keys
        self.burst = burst
        self.hot_fraction = hot_fraction
        self._rng = SeedSequenceFactory(seed).generator("validate.fuzz")
        # a few hot keys soak up `hot_fraction` of all emissions
        self._hot = self._rng.choice(n_keys, size=max(2, n_keys // 8), replace=False)

    def _burst_keys(self) -> tuple[int, ...]:
        rng = self._rng
        n_hot = int(self.burst * self.hot_fraction)
        hot = rng.choice(self._hot, size=n_hot, replace=True)
        cold = rng.integers(0, self.n_keys, size=self.burst - n_hot)
        keys = np.concatenate([hot, cold])
        rng.shuffle(keys)
        return tuple(int(k) for k in keys)

    def schedule(self, n_actions: int, *, windowed: bool = False) -> list[FuzzAction]:
        """Generate ``n_actions`` adversarial actions."""
        rng = self._rng
        kinds = list(ACTION_KINDS)
        if not windowed:
            kinds.remove("rotate")
        # bias towards the interleavings that historically break protocols
        weights = {
            "burst": 0.30,
            "migrate_mid": 0.25,
            "migrate_back": 0.15,
            "zero_benefit": 0.10,
            "rotate": 0.10,
            "settle": 0.10,
        }
        p = np.array([weights[k] for k in kinds])
        p = p / p.sum()
        actions: list[FuzzAction] = []
        for step in range(n_actions):
            kind = str(rng.choice(kinds, p=p))
            stream = "R" if rng.random() < 0.5 else "S"
            side = "R" if rng.random() < 0.5 else "S"
            keys = (
                self._burst_keys()
                if kind in ("burst", "migrate_mid")
                else ()
            )
            actions.append(
                FuzzAction(
                    step=step,
                    kind=kind,
                    stream=stream,
                    keys=keys,
                    side=side,
                    dt=float(rng.uniform(0.02, 0.2)),
                )
            )
        return actions


def _make_selector(name: str, seed: int):
    if name == "greedyfit":
        return GreedyFit()
    if name == "safit":
        return SAFit(seed=seed)
    raise ConfigError(f"unknown selector {name!r}; expected greedyfit or safit")


# --------------------------------------------------------------------- #
# oracle-side fuzzing
# --------------------------------------------------------------------- #


class FaultyBiclique(ExactBiclique):
    """An :class:`ExactBiclique` with a deliberately broken migration.

    Exists to prove the exactly-once checker actually detects the races
    section III-D's ordering rules prevent:

    - ``drop_queued`` — the "temporary queue" is discarded instead of
      forwarded: queued probes/stores of migrated keys vanish (lost joins);
    - ``duplicate_stored`` — the source keeps its stored copy and queued
      tuples are delivered to *both* instances (double joins);
    - ``route_before_extract`` — routing is updated but the stored tuples
      never move: probes dispatched after the migration land on the target
      and meet an empty store (lost joins via split storage).
    """

    def __init__(self, n_instances: int, fault: str, dispatch_delay: float = 0.0):
        if fault not in FAULT_MODES:
            raise ConfigError(
                f"unknown fault {fault!r}; expected one of {FAULT_MODES}"
            )
        super().__init__(n_instances, dispatch_delay)
        self.fault = fault

    def migrate(self, side, source, target, keys, now, duration=0.0):
        keys = self.owned_keys(side, source, keys)
        if not keys:
            return
        src = self.groups[side][source]
        dst = self.groups[side][target]
        if self.fault == "route_before_extract":
            # routing flips, storage stays behind
            self.routing[side].install(sorted(keys), target)
            return
        stored, queued = src.extract_for_migration(keys)
        if self.fault == "drop_queued":
            dst.accept_migration(stored, [], visible_at=now + duration)
        elif self.fault == "duplicate_stored":
            dst.accept_migration(stored, queued, visible_at=now + duration)
            src.accept_migration(stored, queued, visible_at=now)
        self.routing[side].install(sorted(keys), target)


def _oracle_selection_problem(
    oracle: ExactBiclique, side: str, source: int, target: int
) -> SelectionProblem:
    """Build a real :class:`SelectionProblem` from the oracle's state so the
    production selectors pick the migrated keys."""
    src = oracle.groups[side][source]
    dst = oracle.groups[side][target]
    stored_counts = {k: len(v) for k, v in src.store.items() if v}
    probe_counts: dict[int, int] = {}
    for t in src.queue:
        if t.op == "probe":
            probe_counts[t.key] = probe_counts.get(t.key, 0) + 1
    all_keys = sorted(set(stored_counts) | set(probe_counts))
    dst_backlog = sum(1 for t in dst.queue if t.op == "probe")
    return SelectionProblem(
        stored_i=src.stored_total(),
        backlog_i=sum(probe_counts.values()),
        stored_j=dst.stored_total(),
        backlog_j=dst_backlog,
        keys=np.array(all_keys, dtype=np.int64),
        key_stored=np.array(
            [stored_counts.get(k, 0) for k in all_keys], dtype=np.int64
        ),
        key_backlog=np.array(
            [probe_counts.get(k, 0) for k in all_keys], dtype=np.int64
        ),
    )


def _heaviest_lightest(oracle: ExactBiclique, side: str) -> tuple[int, int]:
    totals = [inst.stored_total() for inst in oracle.groups[side]]
    heaviest = int(np.argmax(totals))
    lightest = int(np.argmin(totals))
    if heaviest == lightest:
        lightest = (heaviest + 1) % oracle.n
    return heaviest, lightest


def run_oracle_fuzz(
    seed: int,
    *,
    n_actions: int = 40,
    n_instances: int = 3,
    selector: str = "greedyfit",
    fault: str | None = None,
    dispatch_delay: float = 0.01,
) -> FuzzReport:
    """Play one adversarial schedule against the exact oracle.

    Returns a :class:`FuzzReport`; ``report.ok`` is the exactly-once
    verdict.  With a healthy protocol (``fault=None``) the report must come
    back ok for every seed; with any :data:`FAULT_MODES` entry the schedule
    is expected to expose the break (the caller asserts ``not ok``).
    """
    fuzzer = ScheduleFuzzer(seed)
    actions = fuzzer.schedule(n_actions)
    sel = _make_selector(selector, seed)
    oracle: ExactBiclique
    if fault is None:
        oracle = ExactBiclique(n_instances, dispatch_delay=dispatch_delay)
    else:
        oracle = FaultyBiclique(n_instances, fault, dispatch_delay=dispatch_delay)

    now = 0.0
    n_migrations = 0
    n_zero_benefit = 0
    last_migrated: tuple[str, set[int], int] | None = None

    def do_migrate(side: str, mid_burst_keys: tuple[int, ...]) -> None:
        nonlocal n_migrations, last_migrated
        source, target = _heaviest_lightest(oracle, side)
        problem = _oracle_selection_problem(oracle, side, source, target)
        if problem.n_keys == 0 or problem.gap <= 0:
            return
        result = sel.select(problem)
        if result.empty:
            return
        oracle.migrate(
            side, source, target, set(result.selected_keys),
            now=now, duration=0.05,
        )
        n_migrations += 1
        last_migrated = (side, set(result.selected_keys), target)

    for action in actions:
        if action.kind == "burst":
            oracle.ingest_many(action.stream, action.keys, now)
            now += 0.01
            oracle.step(now)
        elif action.kind == "migrate_mid":
            half = len(action.keys) // 2
            oracle.ingest_many(action.stream, action.keys[:half], now)
            do_migrate(action.side, action.keys)
            oracle.ingest_many(action.stream, action.keys[half:], now)
            now += 0.01
            oracle.step(now)
        elif action.kind == "migrate_back":
            if last_migrated is not None:
                side, keys, holder = last_migrated
                dest = (holder + 1) % oracle.n
                if dest != holder:
                    oracle.migrate(side, holder, dest, keys, now=now, duration=0.05)
                    n_migrations += 1
                    last_migrated = (side, keys, dest)
        elif action.kind == "zero_benefit":
            # swap roles: ask the selector to move load from the lightest to
            # the heaviest.  gap <= 0, so a correct selector returns empty.
            source, target = _heaviest_lightest(oracle, action.side)
            problem = _oracle_selection_problem(
                oracle, action.side, target, source
            )
            if problem.gap > 0:
                # the nominally lighter instance (by stored count) can still
                # carry the larger load product; not a zero-benefit scenario
                continue
            result = sel.select(problem)
            if not result.empty:
                raise ValidationError(
                    f"selector {sel.name} produced a non-empty selection "
                    f"for a non-positive gap ({problem.gap})",
                    invariant="zero-benefit",
                    seed=seed,
                    tick=action.step,
                    context={"fuzz": "oracle", "selector": selector,
                             "n_actions": n_actions, "fault": fault},
                )
            n_zero_benefit += 1
        elif action.kind == "settle":
            now += action.dt
            oracle.step(now)
        # "rotate" is meaningless for the full-history oracle: skip

    oracle.drain(now + 10.0)
    ok, message = oracle.check_exactly_once()
    report = FuzzReport(
        seed=seed,
        mode="oracle",
        selector=selector,
        fault=fault,
        n_actions=len(actions),
        n_migrations=n_migrations,
        n_zero_benefit=n_zero_benefit,
        n_pairs=oracle.n_pairs,
        ok=ok,
        message=message,
        actions=actions,
    )
    return report


# --------------------------------------------------------------------- #
# chaos fuzzing: random fault plans against the differential harness
# --------------------------------------------------------------------- #


def run_chaos_fuzz(
    seed: int,
    *,
    system: str = "fastjoin",
    n_actions: int = 3,
    n_instances: int = 4,
    ticks: int = 300,
    tuples_per_stream: int = 2_400,
    selector: str = "greedyfit",
    raise_on_failure: bool = False,
) -> FuzzReport:
    """One seeded chaos campaign cell: random faults + exact oracle.

    :func:`~repro.faults.plan.random_fault_plan` expands ``seed`` into a
    crash/failover/delay/drop/abort schedule over the run's horizon; the
    differential harness then runs the system under that plan with all
    invariant guards on (including the checkpoint+WAL recovery guard) and
    cross-checks the pair multiset against the exact oracle.  ``ok``
    means completeness survived the whole failure schedule.
    """
    from ..faults import random_fault_plan
    from .differential import run_differential

    plan = random_fault_plan(
        seed,
        n_instances=n_instances,
        horizon=ticks * 0.01,
        n_actions=n_actions,
    )
    spec = plan.spec
    try:
        report = run_differential(
            system,
            seed=seed,
            ticks=ticks,
            n_instances=n_instances,
            tuples_per_stream=tuples_per_stream,
            fault_spec=spec,
            config_overrides={"selector": selector},
            raise_on_failure=raise_on_failure,
        )
    except ValidationError:
        if raise_on_failure:
            raise
        return FuzzReport(
            seed=seed,
            mode="chaos",
            selector=selector,
            fault=spec,
            n_actions=len(plan.actions),
            ok=False,
            message="invariant violated",
        )
    return FuzzReport(
        seed=seed,
        mode="chaos",
        selector=selector,
        fault=spec,
        n_actions=len(plan.actions),
        n_migrations=report.n_migrations,
        n_pairs=report.pairs_oracle,
        ok=report.ok,
        message=report.oracle_msg if report.ok else report.summary(),
    )


def run_elastic_fuzz(
    seed: int,
    *,
    system: str = "fastjoin",
    n_events: int = 2,
    n_instances: int = 4,
    ticks: int = 300,
    tuples_per_stream: int = 2_400,
    selector: str = "greedyfit",
    with_faults: bool = False,
    raise_on_failure: bool = False,
) -> FuzzReport:
    """One seeded elastic campaign cell: random scaling + exact oracle.

    :func:`~repro.elastic.policy.random_elastic_policy` expands ``seed``
    into a scheduled scale-out/scale-in sequence over the run's horizon;
    the differential harness runs the system under that policy with all
    invariant guards on and cross-checks the pair multiset against the
    exact oracle (which grows its biclique on demand while replaying the
    ``reason="scaleout"/"scalein"`` events).  With ``with_faults`` the
    same seed additionally draws a random fault plan, exercising the
    crash-during-scale and scale-in-of-a-recovering-instance interleavings.
    ``ok`` means completeness survived the whole elastic schedule.
    """
    from ..elastic import random_elastic_policy
    from .differential import run_differential

    policy = random_elastic_policy(
        seed, horizon=ticks * 0.01, n_events=n_events
    )
    spec = policy.spec
    fault_spec = None
    if with_faults:
        from ..faults import random_fault_plan

        fault_spec = random_fault_plan(
            seed, n_instances=n_instances, horizon=ticks * 0.01, n_actions=2
        ).spec
    try:
        report = run_differential(
            system,
            seed=seed,
            ticks=ticks,
            n_instances=n_instances,
            tuples_per_stream=tuples_per_stream,
            elastic_spec=spec,
            fault_spec=fault_spec,
            config_overrides={"selector": selector},
            raise_on_failure=raise_on_failure,
        )
    except ValidationError:
        if raise_on_failure:
            raise
        return FuzzReport(
            seed=seed,
            mode="elastic",
            selector=selector,
            fault=f"{spec};{fault_spec}" if fault_spec else spec,
            n_actions=len(policy.actions),
            ok=False,
            message="invariant violated",
        )
    return FuzzReport(
        seed=seed,
        mode="elastic",
        selector=selector,
        fault=f"{spec};{fault_spec}" if fault_spec else spec,
        n_actions=len(policy.actions),
        n_migrations=report.n_migrations,
        n_pairs=report.pairs_oracle,
        ok=report.ok,
        message=report.oracle_msg if report.ok else report.summary(),
    )


# --------------------------------------------------------------------- #
# instance-side fuzzing
# --------------------------------------------------------------------- #


def run_instance_fuzz(
    seed: int,
    *,
    n_actions: int = 40,
    n_instances: int = 3,
    selector: str = "greedyfit",
    windowed: bool = False,
    raise_on_failure: bool = True,
) -> FuzzReport:
    """Play one adversarial schedule against production join instances.

    A single-side group of :class:`JoinInstance` workers receives routed
    store/probe batches while a real :class:`MigrationExecutor` (driven by
    GreedyFit or SAFit) migrates between the heaviest and lightest
    instance.  After every action three properties are re-checked:

    - **conservation** — dispatched ops == applied ops + queued ops (the
      join results themselves are schedule-dependent, so completeness is
      the differential harness's job; conservation is what *this* harness
      can check exactly);
    - **colocation** — no key stored on two instances, storage follows the
      routing table;
    - **pause accounting** — a migration pauses the source until exactly
      ``now + event.duration``.
    """
    fuzzer = ScheduleFuzzer(seed)
    actions = fuzzer.schedule(n_actions, windowed=windowed)
    sel = _make_selector(selector, seed)
    routing = RoutingTable(n_instances)
    executor = MigrationExecutor(routing)
    instances = [
        JoinInstance(
            i,
            side="R",
            capacity=3_000.0,
            cost_model=IndexedCost(probe_base=1.0, emit_cost=0.0),
            window_subwindows=4 if windowed else None,
            backlog_smoothing_tau=0.0,
        )
        for i in range(n_instances)
    ]
    now = 0.0
    dispatched_stores = 0
    dispatched_probes = 0
    n_migrations = 0
    n_zero_benefit = 0

    context = {
        "fuzz": "instance",
        "selector": selector,
        "n_actions": n_actions,
        "windowed": windowed,
    }

    def fail(invariant: str, msg: str, step: int) -> None:
        raise ValidationError(
            msg, invariant=invariant, seed=seed, tick=step, context=context
        )

    def route(keys: np.ndarray) -> np.ndarray:
        return routing.apply(keys, hash_to_instance(keys, n_instances))

    def dispatch(keys: tuple[int, ...], probe_every: int = 2) -> None:
        nonlocal dispatched_stores, dispatched_probes
        arr = np.array(keys, dtype=np.int64)
        ops = np.arange(arr.shape[0]) % probe_every == 0
        times = np.full(arr.shape[0], now)
        targets = route(arr)
        for i in range(n_instances):
            mask = targets == i
            if not mask.any():
                continue
            store_mask = mask & ~ops
            probe_mask = mask & ops
            if store_mask.any():
                instances[i].enqueue(
                    Batch.stores(arr[store_mask], times[store_mask])
                )
                dispatched_stores += int(store_mask.sum())
            if probe_mask.any():
                instances[i].enqueue(
                    Batch.probes(arr[probe_mask], times[probe_mask])
                )
                dispatched_probes += int(probe_mask.sum())

    def step_all(dt: float) -> None:
        nonlocal now
        for inst in instances:
            inst.step(now, dt)
        now += dt

    def check_invariants(step: int) -> None:
        served_stores = sum(inst.total_stored for inst in instances)
        served_probes = sum(inst.total_probed for inst in instances)
        queued_probes = sum(inst.queue.probe_backlog for inst in instances)
        queued_stores = sum(
            len(inst.queue) - inst.queue.probe_backlog for inst in instances
        )
        if served_stores + queued_stores != dispatched_stores:
            fail(
                "conservation",
                f"store ops: dispatched {dispatched_stores} != applied "
                f"{served_stores} + queued {queued_stores}",
                step,
            )
        if served_probes + queued_probes != dispatched_probes:
            fail(
                "conservation",
                f"probe ops: dispatched {dispatched_probes} != applied "
                f"{served_probes} + queued {queued_probes}",
                step,
            )
        found = first_colocation_violation(instances, route)
        if found is not None:
            where = (
                f"instances {found.other_instance} and {found.instance}"
                if found.other_instance is not None
                else f"{found.instance} but routed to {found.expected_instance}"
            )
            fail("colocation", f"key {found.key} stored on {where}", step)

    def do_migrate(step: int) -> None:
        nonlocal n_migrations, n_zero_benefit
        loads = [
            inst.store.total * max(inst.queue.probe_backlog, 1)
            for inst in instances
        ]
        source = instances[int(np.argmax(loads))]
        target = instances[int(np.argmin(loads))]
        if source is target:
            target = instances[(source.instance_id + 1) % n_instances]
        version_before = routing.version
        pause_before = source._paused_until
        event = executor.execute(now, "R", source, target, sel, li_before=0.0)
        if event is None:
            if routing.version != version_before:
                fail(
                    "migration",
                    "empty selection changed the routing table",
                    step,
                )
            n_zero_benefit += 1
            return
        n_migrations += 1
        # pause_until is monotone: an earlier, longer pause wins
        expected_pause = max(pause_before, now + event.duration)
        if abs(source._paused_until - expected_pause) > 1e-9:
            fail(
                "migration",
                f"source paused until {source._paused_until}, expected "
                f"now + duration = {expected_pause}",
                step,
            )

    try:
        for action in actions:
            if action.kind == "burst":
                dispatch(action.keys)
                step_all(0.01)
            elif action.kind == "migrate_mid":
                half = len(action.keys) // 2
                dispatch(action.keys[:half])
                do_migrate(action.step)
                dispatch(action.keys[half:])
                step_all(0.01)
            elif action.kind == "migrate_back":
                do_migrate(action.step)
                do_migrate(action.step)
            elif action.kind == "zero_benefit":
                do_migrate(action.step)
            elif action.kind == "rotate":
                for inst in instances:
                    inst.rotate_window()
            elif action.kind == "settle":
                step_all(action.dt)
            check_invariants(action.step)
        # drain what remains so the final conservation check covers
        # everything the schedule dispatched
        for _ in range(200):
            if all(len(inst.queue) == 0 for inst in instances):
                break
            step_all(0.05)
        check_invariants(n_actions)
    except ValidationError:
        if raise_on_failure:
            raise
        return FuzzReport(
            seed=seed,
            mode="instance",
            selector=selector,
            n_actions=len(actions),
            n_migrations=n_migrations,
            n_zero_benefit=n_zero_benefit,
            ok=False,
            message="invariant violated",
            actions=actions,
        )

    return FuzzReport(
        seed=seed,
        mode="instance",
        selector=selector,
        n_actions=len(actions),
        n_migrations=n_migrations,
        n_zero_benefit=n_zero_benefit,
        n_pairs=0,
        ok=True,
        message="ok",
        actions=actions,
    )

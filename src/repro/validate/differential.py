"""Differential cross-check: production systems vs. the exact oracle.

The production engine (:mod:`repro.join.instance`) tracks per-key *counts*
— fast, but blind to tuple identity.  The exact engine
(:mod:`repro.join.exact`) carries real tuple uids — slow, but it can prove
the paper's completeness requirement ("each pair of tuples that matches
must be joined exactly once", section I / III-D).  The differential
harness runs both on the *same* workload and cross-checks them:

1. every key's emission stream is recorded by a tap on the sources and
   replayed into an :class:`~repro.join.exact.ExactBiclique` oracle,
   tick-aligned with the system under test;
2. every migration the system executes is mirrored into the oracle at the
   same simulated time with the same key set (via
   :class:`~repro.engine.metrics.MigrationEvent.keys`), so the oracle
   experiences the system's real, skew-driven migration schedule — not a
   synthetic one;
3. after both drain, three assertions must hold:

   - the oracle's observed pair multiset equals ``{(r, s) : r.key ==
     s.key}`` with multiplicity one (tuple-level exactly-once under the
     replayed schedule);
   - the system's per-key join-result counts equal ``|R(k)| * |S(k)|``
     for every key (count-level multiset identity; per-key counts are the
     faithful projection of the pair multiset for a count-based engine);
   - total results agree across system, oracle and the closed form.

A divergence produces first-divergence diagnostics — the tick at which the
earliest-diverging key first entered the system, the instance(s) holding
it, and the routing epoch — and, optionally, a replayable
:class:`~repro.errors.ValidationError`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError, ValidationError
from ..join.exact import ExactBiclique
from ..systems.factory import build_system
from .invariants import GuardConfig, InvariantGuards
from .workloads import make_sources, validation_config

__all__ = [
    "TapSource",
    "KeyDivergence",
    "FirstDivergence",
    "DifferentialReport",
    "DifferentialHarness",
    "run_differential",
]


class TapSource:
    """A recording wrapper around a :class:`StreamSource`.

    The runtime pulls from the tap exactly as it would from the wrapped
    source; the tap remembers every emitted batch (with its tick index) so
    the harness can replay an identical workload into the oracle and
    reconstruct per-key emission counts and first-seen ticks afterwards.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.batches: list[tuple[int, np.ndarray]] = []
        self._tick = 0
        self._pending: list[np.ndarray] = []

    # -- StreamSource protocol ------------------------------------------ #

    def emit(self, dt: float) -> np.ndarray:
        keys = self.inner.emit(dt)
        if keys.shape[0]:
            self.batches.append((self._tick, keys))
            self._pending.append(keys)
        return keys

    @property
    def total(self):
        return self.inner.total

    @property
    def exhausted(self) -> bool:
        return self.inner.exhausted

    @property
    def emitted(self) -> int:
        return self.inner.emitted

    # -- harness side ---------------------------------------------------- #

    def advance_tick(self, tick: int) -> list[np.ndarray]:
        """Collect batches emitted since the last call; move to ``tick``."""
        out, self._pending = self._pending, []
        self._tick = tick
        return out

    def key_counts(self) -> dict[int, int]:
        counts: dict[int, int] = defaultdict(int)
        for _, keys in self.batches:
            uniq, c = np.unique(keys, return_counts=True)
            for k, n in zip(uniq.tolist(), c.tolist()):
                counts[k] += n
        return dict(counts)

    def first_seen_tick(self, key: int) -> int | None:
        for tick, keys in self.batches:
            if np.any(keys == key):
                return tick
        return None


@dataclass(frozen=True)
class KeyDivergence:
    """One key whose joined-pair count diverged from the oracle's."""

    key: int
    expected: int
    observed: int


@dataclass(frozen=True)
class FirstDivergence:
    """Diagnostics for the earliest divergence found."""

    tick: int                 # tick the diverging key first entered the run
    key: int
    instances: tuple[int, ...]  # instances holding the key's stored tuples
    routing_epoch: int        # routing-table version of the key's own side
    kind: str                 # "missing" | "extra" | "oracle"
    detail: str


@dataclass
class DifferentialReport:
    """Outcome of one differential run."""

    system: str
    workload: str
    seed: int
    ticks: int
    fault_spec: str | None = None
    elastic_spec: str | None = None
    ok: bool = True
    n_migrations: int = 0
    n_migrations_replayed: int = 0
    pairs_expected: int = 0
    results_system: int = 0
    pairs_oracle: int = 0
    oracle_ok: bool = True
    oracle_msg: str = ""
    divergences: list[KeyDivergence] = field(default_factory=list)
    first_divergence: FirstDivergence | None = None

    def summary(self) -> str:
        status = "OK" if self.ok else "DIVERGED"
        faulted = f" faults={self.fault_spec!r}" if self.fault_spec else ""
        elastic = f" elastic={self.elastic_spec!r}" if self.elastic_spec else ""
        lines = [
            f"differential[{self.system}/{self.workload} seed={self.seed} "
            f"ticks={self.ticks}{faulted}{elastic}]: {status}",
            f"  pairs expected={self.pairs_expected} "
            f"system={self.results_system} oracle={self.pairs_oracle}",
            f"  migrations={self.n_migrations} "
            f"(replayed into oracle: {self.n_migrations_replayed})",
            f"  oracle exactly-once: {self.oracle_msg}",
        ]
        if self.divergences:
            lines.append(f"  diverging keys: {len(self.divergences)}")
        if self.first_divergence is not None:
            d = self.first_divergence
            lines.append(
                f"  first divergence: key={d.key} first-seen tick={d.tick} "
                f"instances={list(d.instances)} routing-epoch="
                f"{d.routing_epoch} ({d.kind}: {d.detail})"
            )
        return "\n".join(lines)

    def raise_on_failure(self) -> None:
        if self.ok:
            return
        d = self.first_divergence
        raise ValidationError(
            self.summary(),
            invariant="exactly-once",
            seed=self.seed,
            tick=d.tick if d is not None else self.ticks,
            context={
                "system": self.system,
                "workload": self.workload,
                "ticks": self.ticks,
                "fault_plan": self.fault_spec,
                "elastic_policy": self.elastic_spec,
                "key": d.key if d is not None else None,
            },
        )


class DifferentialHarness:
    """Drives one system and the exact oracle through the same schedule."""

    def __init__(
        self,
        system: str,
        *,
        workload: str = "zipf",
        seed: int = 0,
        ticks: int = 2_000,
        n_instances: int = 4,
        zipf: float = 1.2,
        zipf_r: float | None = None,
        zipf_s: float | None = None,
        tuples_per_stream: int = 5_000,
        rate: float = 2_000.0,
        guards: bool = True,
        guard_period: int = 25,
        fault_spec: str | None = None,
        elastic_spec: str | None = None,
        config_overrides: dict | None = None,
        obs=None,
        shards: int = 1,
    ) -> None:
        self.system = system
        self.workload = workload
        self.seed = seed
        self.ticks = ticks
        self.n_instances = n_instances
        overrides = dict(config_overrides or {})
        if fault_spec is not None:
            # Faults flow through the config so the assembled runtime gets
            # its injector exactly as any other entry point would — the
            # oracle then mirrors the injected delays and failover
            # hand-offs below.
            overrides["fault_spec"] = fault_spec
        if elastic_spec is not None:
            # Elasticity flows through the config the same way; its
            # reason="scaleout"/"scalein" MigrationEvents then replay into
            # the oracle below like any other migration, growing the
            # oracle's biclique on demand.
            overrides["elastic_spec"] = elastic_spec
        self.fault_spec = overrides.get("fault_spec")
        self.elastic_spec = overrides.get("elastic_spec")
        self.config = validation_config(
            kind=workload,
            n_instances=n_instances,
            seed=seed,
            **overrides,
        )
        r_source, s_source = make_sources(
            workload,
            seed,
            zipf=zipf,
            zipf_r=zipf_r,
            zipf_s=zipf_s,
            tuples_per_stream=tuples_per_stream,
            rate=rate,
        )
        self.r_tap = TapSource(r_source)
        self.s_tap = TapSource(s_source)
        self.runtime = build_system(system, self.config, self.r_tap, self.s_tap)
        for inst in self.runtime.instances:
            inst.enable_result_tracking()
        if obs is not None:
            # Attach before the guards so a violation's ValidationError can
            # capture the active trace's trailing events.
            self.runtime.attach_observer(
                obs,
                meta={"system": system, "workload": workload, "seed": seed,
                      "ticks": ticks},
            )
        if guards:
            self.runtime.attach_guards(
                InvariantGuards(
                    seed=seed,
                    config=GuardConfig(period=guard_period),
                    context={
                        "system": system,
                        "workload": workload,
                        "ticks": ticks,
                    },
                )
            )
        if shards > 1:
            # Attached last: sharding must wrap the fully-wired runtime
            # (monitors, faults, elastic, guards, obs all hooked up).
            from ..engine.shard import ShardCoordinator

            self.runtime.attach_sharding(ShardCoordinator(shards))
        self.shards = shards
        self.oracle = ExactBiclique(
            n_instances,
            dispatch_delay=self.config.dispatch_delay_base
            + self.config.dispatch_delay_per_instance * n_instances,
        )
        self._replayed = 0

    # ------------------------------------------------------------------ #

    def _mirror_tick(self, t0: float) -> None:
        """Replay this tick's emissions and migrations into the oracle."""
        tick = self.runtime.tick_index
        faults = self.runtime.faults
        for stream, tap in (("R", self.r_tap), ("S", self.s_tap)):
            # The step that just ran dispatched under tick_index - 1 (the
            # runtime increments after dispatching); a fault-injected batch
            # delay charged there shifts the same tuples' visibility in
            # the oracle, keeping both engines' delivery times aligned.
            extra = (
                faults.applied_delay(tick - 1, stream)
                if faults is not None else 0.0
            )
            for keys in tap.advance_tick(tick):
                self.oracle.ingest_many(stream, keys, t0, extra_delay=extra)
        events = self.runtime.metrics.migration_events()
        for event in events[self._replayed:]:
            if event.keys:
                self.oracle.migrate(
                    event.side,
                    event.source,
                    event.target,
                    set(event.keys),
                    now=event.time,
                    duration=event.duration,
                )
        self._replayed = len(events)
        self.oracle.step(t0 + self.config.tick)

    def run(self, max_extra_ticks: int = 100_000) -> DifferentialReport:
        """Run ``ticks`` ticks, drain both engines, and cross-check."""
        rt = self.runtime
        try:
            for _ in range(self.ticks):
                t0 = rt.clock.now
                rt.step()
                self._mirror_tick(t0)
            # Drain: the comparison is only defined on the complete output.
            extra = 0
            while not (
                self.r_tap.exhausted
                and self.s_tap.exhausted
                and rt._backlog() == 0
            ):
                t0 = rt.clock.now
                rt.step()
                self._mirror_tick(t0)
                extra += 1
                if extra > max_extra_ticks:
                    raise SimulationError(
                        f"differential run failed to drain within "
                        f"{max_extra_ticks} extra ticks "
                        f"(backlog={rt._backlog()})"
                    )
        finally:
            if rt._shard is not None:
                # The comparison below reads live stores/result tallies;
                # pull every instance home and retire the workers first
                # (and never leak worker processes on an error path).
                rt._shard.shutdown(rt)
        self.oracle.drain(rt.clock.now + 10.0)
        return self._compare(extra)

    # ------------------------------------------------------------------ #

    def _compare(self, extra_ticks: int) -> DifferentialReport:
        rt = self.runtime
        report = DifferentialReport(
            system=self.system,
            workload=self.workload,
            seed=self.seed,
            ticks=self.ticks,
            fault_spec=self.fault_spec,
            elastic_spec=self.elastic_spec,
        )
        report.n_migrations = len(rt.metrics.migration_events())
        report.n_migrations_replayed = self._replayed

        # 1. tuple-level exactly-once inside the oracle
        oracle_ok, oracle_msg = self.oracle.check_exactly_once()
        report.oracle_ok = oracle_ok
        report.oracle_msg = oracle_msg

        # 2. per-key pair counts: system vs the closed-form cross product
        r_counts = self.r_tap.key_counts()
        s_counts = self.s_tap.key_counts()
        expected = {
            k: r_counts[k] * s_counts[k]
            for k in set(r_counts) & set(s_counts)
        }
        observed: dict[int, int] = defaultdict(int)
        retired = [i for side in ("R", "S") for i in rt.retired[side]]
        for inst in rt.instances + retired:
            for k, c in inst.result_counts_snapshot().items():
                observed[k] += int(round(c))
        divergences = []
        for k in sorted(set(expected) | set(observed)):
            e = expected.get(k, 0)
            o = observed.get(k, 0)
            if e != o:
                divergences.append(KeyDivergence(key=k, expected=e, observed=o))
        report.divergences = divergences

        # 3. totals
        report.pairs_expected = sum(expected.values())
        report.results_system = sum(observed.values())
        report.pairs_oracle = self.oracle.n_pairs

        report.ok = oracle_ok and not divergences and (
            report.pairs_expected == report.pairs_oracle == report.results_system
        )
        if not report.ok:
            report.first_divergence = self._diagnose(
                divergences, oracle_ok, oracle_msg
            )
        return report

    def _diagnose(
        self,
        divergences: list[KeyDivergence],
        oracle_ok: bool,
        oracle_msg: str,
    ) -> FirstDivergence:
        """Locate the earliest-entering diverging key and its placement."""
        if not divergences:
            return FirstDivergence(
                tick=self.runtime.tick_index,
                key=-1,
                instances=(),
                routing_epoch=-1,
                kind="oracle",
                detail=oracle_msg,
            )

        def first_tick(k: int) -> int:
            ticks = [
                t
                for t in (
                    self.r_tap.first_seen_tick(k),
                    self.s_tap.first_seen_tick(k),
                )
                if t is not None
            ]
            return min(ticks) if ticks else self.runtime.tick_index

        worst = min(divergences, key=lambda d: (first_tick(d.key), d.key))
        kind = "missing" if worst.observed < worst.expected else "extra"
        holders = tuple(
            inst.instance_id
            for inst in self.runtime.instances
            if inst.store.count(worst.key) > 0
        )
        # report the routing epoch of the R side (stores of the R stream);
        # both sides' epochs appear in the detail string for completeness
        routing = self.runtime.dispatcher.routing
        detail = (
            f"expected {worst.expected} pairs, observed {worst.observed}; "
            f"routing epochs R={routing['R'].version} "
            f"S={routing['S'].version}; oracle={oracle_msg}"
        )
        return FirstDivergence(
            tick=first_tick(worst.key),
            key=worst.key,
            instances=holders,
            routing_epoch=routing["R"].version,
            kind=kind,
            detail=detail,
        )


def run_differential(
    system: str,
    *,
    raise_on_failure: bool = False,
    **kwargs,
) -> DifferentialReport:
    """Build, run and compare one differential case (see
    :class:`DifferentialHarness` for keyword parameters)."""
    report = DifferentialHarness(system, **kwargs).run()
    if raise_on_failure:
        report.raise_on_failure()
    return report

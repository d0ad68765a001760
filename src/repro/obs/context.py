"""The :class:`Observability` bundle and its engine wiring.

One ``Observability`` object groups the three instruments — event bus,
metrics registry, phase profiler — and knows how to bind them to a wired
:class:`~repro.engine.runtime.StreamJoinRuntime`.  The engine never imports
this module: every hook site holds a plain ``obs`` attribute (``None`` by
default) and calls a method on it only when it is set, so the steady-state
cost of the entire observability layer is one ``is not None`` test per
hook.

The hook methods here are the single place that decides *what* gets
emitted and published; the engine only reports *that* something happened.
"""

from __future__ import annotations

import numpy as np

from .events import (
    CaptureSink,
    EventBus,
    JsonlSink,
    MIGRATION_PHASES,
    RECOVERY_PHASES,
    RingBufferSink,
    set_active_trace,
)
from .profile import PhaseProfiler
from .registry import MetricsRegistry

__all__ = ["Observability"]

#: how many hottest keys a dispatch event records
DISPATCH_TOP_KEYS = 5


class Observability:
    """Event bus + metrics registry + profiler, bound to one runtime.

    Parameters
    ----------
    bus:
        Event bus (``None`` disables trace events).
    registry:
        Metrics registry (``None`` disables aggregate metrics).
    profiler:
        Phase profiler (``None`` disables wall-time attribution).
    """

    def __init__(
        self,
        bus: EventBus | None = None,
        registry: MetricsRegistry | None = None,
        profiler: PhaseProfiler | None = None,
    ) -> None:
        self.bus = bus
        self.registry = registry
        self.profiler = profiler
        #: set by :meth:`create` when built in worker-capture mode
        self.capture_sink = None
        self._wire_registry()

    @classmethod
    def create(
        cls,
        jsonl_path=None,
        ring_capacity: int = 512,
        registry: bool = True,
        profile: bool = True,
        capture: bool = False,
    ) -> "Observability":
        """The standard instrument set: flight recorder + optional JSONL
        file + registry + profiler.

        ``capture=True`` adds a :class:`~repro.obs.events.CaptureSink`
        (exposed as ``capture_sink``) that buffers every event in memory —
        the worker-process mode: a pool worker captures its trace and
        returns ``capture_sink.to_dicts()``, and the parent forwards the
        events to its own sinks (``--trace`` under ``--jobs N``).
        """
        sinks: list = [RingBufferSink(ring_capacity)]
        capture_sink = None
        if capture:
            capture_sink = CaptureSink()
            sinks.append(capture_sink)
        if jsonl_path is not None:
            sinks.append(JsonlSink(jsonl_path))
        obs = cls(
            bus=EventBus(sinks),
            registry=MetricsRegistry() if registry else None,
            profiler=PhaseProfiler() if profile else None,
        )
        obs.capture_sink = capture_sink
        return obs

    def _wire_registry(self) -> None:
        reg = self.registry
        if reg is None:
            self._ctr_results = None
            return
        self._ctr_results = reg.counter(
            "repro_results_total", "join-result tuples emitted"
        ).labels()
        self._ctr_processed = reg.counter(
            "repro_processed_total", "input tuples served"
        ).labels()
        self._hist_latency = reg.histogram(
            "repro_latency_seconds", "arrival-to-completion tuple latency"
        ).labels()
        # Attribution components (DESIGN §5): one histogram family keyed by
        # component, children cached since hooks observe them every tick.
        comp_family = reg.histogram(
            "repro_latency_component_seconds",
            "per-tuple latency attribution component",
            ("component",),
        )
        self._hist_components = {
            name: comp_family.labels(component=name)
            for name in ("queue_wait", "service", "migration_pause",
                         "recovery_pause")
        }
        self._ctr_dispatch_delay = reg.counter(
            "repro_dispatch_delay_seconds_total",
            "dispatch/network delay charged to delivered tuples",
            ("side",),
        )
        self._ctr_ticks = reg.counter(
            "repro_ticks_total", "simulation steps executed"
        ).labels()
        self._ctr_throttled = reg.counter(
            "repro_throttled_ticks_total", "steps spent in spout backpressure"
        ).labels()
        self._ctr_stores = reg.counter(
            "repro_dispatch_stores_total", "store ops delivered", ("side",)
        )
        self._ctr_probes = reg.counter(
            "repro_dispatch_probes_total", "probe ops delivered", ("side",)
        )
        self._ctr_migrations = reg.counter(
            "repro_migrations_total", "migrations executed", ("side",)
        )
        self._gauge_li = reg.gauge(
            "repro_load_imbalance", "degree of load imbalance (Eq. 2)", ("side",)
        )
        self._gauge_stored = reg.gauge(
            "repro_instance_stored", "stored tuples |R_i|", ("side", "instance")
        )
        self._gauge_backlog = reg.gauge(
            "repro_instance_backlog", "probe backlog phi_si", ("side", "instance")
        )
        self._ctr_inst_results = reg.counter(
            "repro_instance_results_total",
            "join results emitted per instance",
            ("side", "instance"),
        )
        # per-(side)/(side,instance) children, cached to keep hooks cheap
        self._side_children: dict[tuple[str, str], object] = {}
        self._inst_children: dict[tuple[str, str, int], object] = {}

    def _side_child(self, family, name: str, side: str):
        key = (name, side)
        child = self._side_children.get(key)
        if child is None:
            child = self._side_children[key] = family.labels(side=side)
        return child

    def _inst_child(self, family, name: str, side: str, instance: int):
        key = (name, side, instance)
        child = self._inst_children.get(key)
        if child is None:
            child = self._inst_children[key] = family.labels(
                side=side, instance=instance
            )
        return child

    # ------------------------------------------------------------------ #
    # binding
    # ------------------------------------------------------------------ #

    def bind(self, runtime, meta: dict | None = None) -> None:
        """Wire every hook site of ``runtime`` to this bundle.

        ``meta`` (system name, workload, seed...) is emitted as the trace's
        ``run_meta`` header event so ``inspect`` can label its report,
        together with the kernel path (:func:`repro.engine.ckernels.describe`).
        The shard count is not part of the header: a sharded trace must
        equal the serial one once ``shard`` events are filtered out, and
        the ``shard`` fork event carries the worker count.
        """
        from ..engine import ckernels

        runtime.obs = self
        runtime.metrics.obs = self
        runtime.dispatcher.obs = self
        for inst in runtime.instances:
            inst.obs = self
        for monitor in runtime.monitors.values():
            monitor.obs = self
            if monitor.executor is not None:
                monitor.executor.obs = self
        if self.bus is not None:
            set_active_trace(self.bus)
            self.bus.emit(
                runtime.clock.now, "run_meta",
                tick=runtime.clock.tick,
                n_instances={
                    side: len(group)
                    for side, group in runtime.dispatcher.groups.items()
                },
                **ckernels.describe(),
                **(meta or {}),
            )

    def close(self) -> None:
        """Flush and close sinks; clear the active-trace context."""
        if self.bus is not None:
            from .events import active_trace

            if active_trace() is self.bus:
                set_active_trace(None)
            self.bus.close()

    # ------------------------------------------------------------------ #
    # hooks (called by the engine, always behind an ``is not None`` test)
    # ------------------------------------------------------------------ #

    def on_tick(self, end: float, tick_index: int, throttled: bool) -> None:
        if self._ctr_results is not None:
            self._ctr_ticks.inc()
            if throttled:
                self._ctr_throttled.inc()
        if self.bus is not None:
            self.bus.emit(end, "tick", tick=tick_index, throttled=throttled)

    def on_dispatch(
        self, stream: str, keys, n_probes: int, probe_side: str,
        emit_time: float, delay: float = 0.0,
    ) -> None:
        """One dispatched batch.  ``delay`` is the total delivery delay
        charged across the batch's tuples (store + probe legs), the
        dispatch share of the tuples' eventual queue-wait latency."""
        n = int(keys.shape[0])
        if self._ctr_results is not None:
            self._side_child(self._ctr_stores, "stores", stream).inc(n)
            self._side_child(self._ctr_probes, "probes", probe_side).inc(n_probes)
            if delay:
                self._side_child(
                    self._ctr_dispatch_delay, "dispatch_delay", stream
                ).inc(delay)
        if self.bus is not None:
            uniq, counts = np.unique(keys, return_counts=True)
            top = np.argsort(counts)[::-1][:DISPATCH_TOP_KEYS]
            self.bus.emit(
                emit_time, "dispatch",
                stream=stream, n=n, n_probes=int(n_probes),
                delay=float(delay),
                top_keys=[
                    [int(uniq[i]), int(counts[i])] for i in top
                ],
            )

    def on_service_tick(
        self,
        end: float,
        n_processed: int,
        n_results: float,
        latency_sum: float,
        latency_count: int,
        components: tuple[float, float, float] | None = None,
    ) -> None:
        """One tick's aggregated join-instance work (emitted by the
        runtime so the trace carries one event per tick, not per
        instance — the per-second rebinning in ``inspect`` matches
        :meth:`MetricsCollector.finalize` exactly).

        ``components`` is the tick's ``(service, migration_pause,
        recovery_pause)`` attribution sums from the collector; the
        queue-wait residual is re-derived by consumers (inspect) so the
        trace replays the same identity the live collector maintains.
        """
        if self.bus is not None:
            sv, mg, rc = components if components is not None else (0.0, 0.0, 0.0)
            self.bus.emit(
                end, "service",
                n_processed=int(n_processed),
                n_results=float(n_results),
                latency_sum=float(latency_sum),
                latency_count=int(latency_count),
                comp_service=float(sv),
                comp_migration=float(mg),
                comp_recovery=float(rc),
            )

    def on_record_service(self, now: float, n_processed: int, n_results: float,
                          latencies, comp_service=None, comp_migration=None,
                          comp_recovery=None) -> None:
        """Aggregate-metric publication from ``MetricsCollector``."""
        if self._ctr_results is None:
            return
        if n_processed:
            self._ctr_processed.inc(n_processed)
        if n_results:
            self._ctr_results.inc(n_results)
        if latencies is not None and latencies.size:
            self._hist_latency.observe_many(latencies)
            if comp_service is not None:
                # Per-tuple queue wait for the histogram only: the plain
                # elementwise residual (the bit-exact closure is a property
                # of the per-second sums, not of bucketed counts).
                queue_wait = latencies - comp_service
                if comp_migration is not None:
                    queue_wait -= comp_migration
                if comp_recovery is not None:
                    queue_wait -= comp_recovery
                hists = self._hist_components
                hists["queue_wait"].observe_many(queue_wait)
                hists["service"].observe_many(comp_service)
                if comp_migration is not None:
                    hists["migration_pause"].observe_many(comp_migration)
                if comp_recovery is not None:
                    hists["recovery_pause"].observe_many(comp_recovery)

    def on_instance_step(self, inst, report) -> None:
        """Per-instance publication from ``JoinInstance.step``."""
        if self._ctr_results is None:
            return
        side, iid = inst.side, inst.instance_id
        self._inst_child(self._gauge_stored, "stored", side, iid).set(
            inst.store.total
        )
        self._inst_child(self._gauge_backlog, "backlog", side, iid).set(
            inst.queue.probe_backlog
        )
        if report.n_results:
            self._inst_child(self._ctr_inst_results, "results", side, iid).inc(
                report.n_results
            )

    def on_li_sample(self, side: str, now: float, li: float, loads) -> None:
        """One monitor sample: LI plus the per-instance load table."""
        if self._ctr_results is not None:
            self._side_child(self._gauge_li, "li", side).set(li)
        if self.bus is not None:
            self.bus.emit(
                now, "li_sample",
                side=side, li=float(li),
                loads=[
                    [int(s.instance), float(s.stored), float(s.backlog),
                     float(s.load)]
                    for s in loads
                ],
            )

    def on_migration(self, event, breakdown: dict, wall: float = 0.0) -> None:
        """One executed migration becomes a seven-phase span (Fig. 11).

        ``breakdown`` is :meth:`MigrationCostModel.breakdown`'s output;
        the fixed overhead is apportioned across the protocol's
        bookkeeping phases so the span's phases tile ``[time, time +
        duration]`` with monotone timestamps.
        """
        if self._ctr_results is not None:
            self._side_child(self._ctr_migrations, "migrations", event.side).inc()
        if self.profiler is not None:
            self.profiler.add("migrate", wall, work=event.n_tuples)
        if self.bus is None:
            return
        fixed = breakdown["fixed"]
        durations = {
            "trigger": 0.0,
            "select": breakdown["select"],
            "pause": 0.25 * fixed,
            "extract": 0.35 * fixed,
            "transfer": breakdown["transfer"],
            "reroute": 0.15 * fixed,
            "drain": 0.25 * fixed,
        }
        span_id = self.bus.next_span_id()
        t = event.time
        for i, phase in enumerate(MIGRATION_PHASES):
            t1 = t + durations[phase]
            extra = {}
            if phase == "trigger":
                extra = {"li_before": event.li_before}
            elif phase == "drain":
                extra = {
                    "n_keys": event.n_keys,
                    "n_tuples": event.n_tuples,
                    "duration": event.duration,
                    "li_after_estimate": event.li_after_estimate,
                }
            self.bus.emit_phase(
                span_id, "migration", phase, t, t1,
                side=event.side, source=event.source, target=event.target,
                seq=i, **extra,
            )
            t = t1

    def on_guard_violation(self, now: float, invariant: str, message: str,
                           **extra) -> None:
        if self.bus is not None:
            self.bus.emit(
                now, "guard_violation",
                invariant=invariant, message=message, **extra,
            )

    # ------------------------------------------------------------------ #
    # fault-tolerance hooks (called by repro.faults.FaultInjector)
    # ------------------------------------------------------------------ #

    def on_checkpoint(self, now: float, n_live: int, n_tuples: int) -> None:
        """One checkpoint round: every live instance snapshotted."""
        if self.bus is not None:
            self.bus.emit(
                now, "checkpoint",
                n_live=int(n_live), n_tuples=int(n_tuples),
            )

    def on_crash(
        self, now: float, side: str, instance: int, mode: str, outage: float
    ) -> None:
        """The fault injector killed ``(side, instance)``."""
        if self.bus is not None:
            self.bus.emit(
                now, "crash",
                side=side, instance=int(instance), mode=mode,
                outage=float(outage),
            )

    def on_scale(
        self,
        now: float,
        kind: str,
        count: int,
        n_per_side: int,
        trigger: str,
    ) -> None:
        """The elastic controller resized the group.

        ``kind`` is ``"scaleout"`` or ``"scalein"`` (recorded as the
        event's ``direction`` field — ``kind`` already names the event
        type), ``count`` the per-side instance delta, ``n_per_side`` the
        size after the action, ``trigger`` the canonical spec of the rule
        or scheduled event that fired.  The state hand-offs themselves
        arrive as ordinary migration spans through :meth:`on_migration`.
        """
        if self.bus is not None:
            self.bus.emit(
                now, "scale",
                direction=kind, count=int(count), n_per_side=int(n_per_side),
                trigger=trigger,
            )

    def on_shard_event(
        self, kind: str, now: float, shards: int, detail: int
    ) -> None:
        """Sharded-execution lifecycle (repro.engine.shard).

        ``kind`` is ``"fork"``/``"refork"``/``"shutdown"`` (``shards`` =
        worker count, ``detail`` = instances covered) or ``"barrier"``
        (``shards`` = the shard quiesced, ``detail`` = instances pulled).
        These are parent-side lifecycle markers: they never enter the
        metrics collector, so aggregate results stay byte-identical to a
        serial run — consumers comparing traces across shard counts must
        filter the ``shard`` event type.
        """
        if self.bus is not None:
            # ``op`` rather than ``kind``: the latter is the event type's
            # own field (mirrors on_scale's ``direction``).
            self.bus.emit(
                now, "shard",
                op=kind, shards=int(shards), detail=int(detail),
            )

    def on_recovery(
        self,
        now: float,
        side: str,
        instance: int,
        mode: str,
        n_restored: int,
        duration: float,
        target: int | None = None,
    ) -> None:
        """One recovery: ``restart`` (rebuild in place), ``failover``
        (state handed to ``target``), or ``rejoin`` (dead instance
        returns empty after a failover).

        Besides the ``recover`` event, a four-phase span
        (:data:`~repro.obs.events.RECOVERY_PHASES`) tiles ``[now, now +
        duration]`` — the recovery-latency analogue of the migration
        timeline ``on_migration`` draws.
        """
        if self.bus is None:
            return
        extra = {} if target is None else {"target": int(target)}
        self.bus.emit(
            now, "recover",
            side=side, instance=int(instance), mode=mode,
            n_restored=int(n_restored), duration=float(duration), **extra,
        )
        # Apportion the restore-cost pause across the protocol's phases:
        # loading the checkpoint and replaying the WAL dominate; the
        # reroute step only exists for a failover hand-off.
        reroute = 0.1 * duration if target is not None else 0.0
        durations = {
            "restore": 0.4 * duration,
            "replay": 0.5 * duration - reroute,
            "reroute": reroute,
            "resume": 0.1 * duration,
        }
        span_id = self.bus.next_span_id()
        t = now
        for i, phase in enumerate(RECOVERY_PHASES):
            t1 = t + durations[phase]
            self.bus.emit_phase(
                span_id, "recovery", phase, t, t1,
                side=side, instance=int(instance), mode=mode, seq=i, **extra,
            )
            t = t1

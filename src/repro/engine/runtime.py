"""The simulation runtime: sources → dispatcher → instances → monitors.

One :class:`StreamJoinRuntime` owns a fully wired system (both biclique
sides, dispatcher, monitors, metrics) and advances it tick by tick.  The
loop per tick is:

1. each source emits its tick's tuples; the dispatcher routes them
   (store to own side, probes to the opposite side);
2. every join instance serves its queue within its work budget;
3. the monitors sample loads / trigger migrations when their period is due;
4. windowed stores rotate when the sub-window period elapses.

``run()`` stops after ``duration`` simulated seconds, or — when sources
are finite and ``drain=True`` — when everything emitted has been served.
"""

from __future__ import annotations

from ..core.monitor import Monitor
from ..data.streams import StreamSource
from ..errors import SimulationError
from ..join.dispatcher import Dispatcher
from ..join.instance import JoinInstance
from ..join.service import ServiceTable
from .clock import SimClock
from .metrics import MetricsCollector, RunMetrics

__all__ = ["StreamJoinRuntime"]


class StreamJoinRuntime:
    """Drives a wired stream-join system through simulated time."""

    def __init__(
        self,
        r_source: StreamSource,
        s_source: StreamSource,
        dispatcher: Dispatcher,
        monitors: dict[str, Monitor],
        metrics: MetricsCollector,
        tick: float = 0.01,
        window_rotation_period: float | None = None,
        backpressure_max_queue: int | None = 5_000,
    ) -> None:
        self.r_source = r_source
        self.s_source = s_source
        self.dispatcher = dispatcher
        self.monitors = monitors
        self.metrics = metrics
        self.clock = SimClock(tick)
        self.window_rotation_period = window_rotation_period
        self._next_rotation = (
            window_rotation_period if window_rotation_period is not None else None
        )
        # Kafka-style backpressure (Storm's max.spout.pending): while any
        # instance's queue exceeds this, the spouts stop emitting.  The
        # paper's sources feed "as fast as possible" under backpressure, so
        # sustained throughput measures the system's service capacity — and
        # one overloaded instance throttles the whole pipeline, which is
        # precisely how load imbalance destroys throughput (Fig. 1d).
        self.backpressure_max_queue = backpressure_max_queue
        self.throttled_ticks = 0
        self.tick_index = 0
        # The biclique membership changes only when the elastic controller
        # scales the group (which calls refresh_instances); caching the
        # concatenation avoids rebuilding it on every tick (the loop reads
        # ``instances`` several times per step).
        self._instances = tuple(
            self.dispatcher.groups["R"] + self.dispatcher.groups["S"]
        )
        # The struct of arrays the per-tick service pass runs over; it
        # adopts the instances' scalars (DESIGN §9), and the dispatcher
        # writes into its queue rings.
        self._service = ServiceTable(self._instances)
        self.dispatcher.bind_table(self._service)
        # Optional invariant guards (repro.validate.invariants).  None by
        # default: the only steady-state cost of the hook is one ``is not
        # None`` test per tick, so benchmarks are unaffected unless a
        # validation run opts in via attach_guards().
        self.guards = None
        # Optional observability bundle (repro.obs).  Same contract as the
        # guards hook: None by default, one ``is not None`` test per site.
        self.obs = None
        # Optional fault injector (repro.faults).  Same contract again:
        # None by default, one test per tick plus one per dispatch.
        self.faults = None
        # Optional elasticity controller (repro.elastic).  Same contract:
        # None by default, one test per tick after the monitors run.
        self.elastic = None
        # Instances the elastic controller retired, per side.  They are
        # drained (empty store/queue) and unreachable, but their lifetime
        # counters and per-key result tallies still count toward the
        # conservation invariant and differential totals.
        self.retired: dict[str, list[JoinInstance]] = {"R": [], "S": []}
        # Queue-length cache filled by the service phase: the backpressure
        # check and ``_backlog`` read last tick's post-service lengths from
        # here instead of re-scanning every instance.  Invalidated by
        # anything that mutates queues outside the service loop (fault
        # events, migrations, membership changes).
        self._qlen_sum = 0
        self._qlen_max = 0
        self._qlen_valid = False

    def attach_observer(self, obs, meta: dict | None = None) -> None:
        """Opt in to structured observability (events/metrics/profiling).

        ``obs`` is an :class:`repro.obs.Observability` (duck-typed here to
        keep the engine layer free of a dependency on the observability
        layer); its ``bind`` wires every hook site of this runtime.
        """
        obs.bind(self, meta=meta)

    def attach_guards(self, guards) -> None:
        """Opt in to per-tick invariant checking.

        ``guards`` is an :class:`repro.validate.invariants.InvariantGuards`
        (duck-typed here to keep the engine layer free of a dependency on
        the validation layer); it is bound to this runtime and its
        ``after_tick`` hook runs at the end of every :meth:`step`.
        """
        guards.bind(self)
        self.guards = guards

    def attach_faults(self, injector) -> None:
        """Opt in to deterministic fault injection and recovery.

        ``injector`` is a :class:`repro.faults.injector.FaultInjector`
        (duck-typed here to keep the engine layer free of a dependency on
        the faults layer); it validates the plan against this runtime,
        attaches per-instance checkpointers, and is then applied at the
        start of every :meth:`step`.
        """
        injector.bind(self)
        self.faults = injector

    def attach_elastic(self, controller) -> None:
        """Opt in to policy-driven elastic scale-out/scale-in.

        ``controller`` is an :class:`repro.elastic.controller.ElasticController`
        (duck-typed here to keep the engine layer free of a dependency on
        the elastic layer); it validates its policy against this runtime
        and is then evaluated after the monitors in every :meth:`step`.
        """
        controller.bind(self)
        self.elastic = controller

    def refresh_instances(self) -> None:
        """Rebuild the cached instance tuple after a membership change.

        The elastic controller calls this after appending or retiring
        instances so the step loop, backlog accounting and backpressure
        checks see the new group immediately.
        """
        self._instances = tuple(
            self.dispatcher.groups["R"] + self.dispatcher.groups["S"]
        )
        self._service = ServiceTable(self._instances)
        self.dispatcher.bind_table(self._service)
        self._qlen_valid = False

    # ------------------------------------------------------------------ #

    @property
    def instances(self) -> list[JoinInstance]:
        return list(self._instances)

    def _backlog(self) -> int:
        if self._qlen_valid:
            return self._qlen_sum
        return sum(len(inst.queue) for inst in self._instances)

    def step(self) -> None:
        """Advance the system by one tick."""
        now = self.clock.now
        dt = self.clock.tick
        obs = self.obs
        prof = obs.profiler if obs is not None else None
        faults = self.faults

        # Fault application comes first so a recovery completing this tick
        # can unblock backpressure before the throttle decision below.
        if faults is not None:
            if faults.before_tick(self, now):
                self._qlen_valid = False

        t_mark = prof.now() if prof is not None else 0.0
        a_mark = prof.mark_alloc() if prof is not None else -1
        cap = self.backpressure_max_queue
        if cap is None:
            throttled = False
        elif self._qlen_valid:
            # Post-service queue lengths cached by the previous tick: one
            # comparison replaces the per-instance scan.
            throttled = self._qlen_max > cap
        else:
            throttled = any(
                len(inst.queue) > cap for inst in self._instances
            )
        if throttled:
            self.throttled_ticks += 1
        else:
            r_keys = self.r_source.emit(dt)
            s_keys = self.s_source.emit(dt)
            if prof is not None:
                t_now = prof.now()
                prof.add(
                    "emit", t_now - t_mark,
                    work=int(r_keys.shape[0] + s_keys.shape[0]),
                    alloc=prof.alloc_since(a_mark),
                )
                t_mark = t_now
                a_mark = prof.mark_alloc()
                n_sent = self.dispatcher.stats.messages
            if r_keys.shape[0]:
                extra = (
                    faults.dispatch_extra_delay("R", now, self.tick_index)
                    if faults is not None else 0.0
                )
                self.dispatcher.dispatch("R", r_keys, now, extra_delay=extra)
            if s_keys.shape[0]:
                extra = (
                    faults.dispatch_extra_delay("S", now, self.tick_index)
                    if faults is not None else 0.0
                )
                self.dispatcher.dispatch("S", s_keys, now, extra_delay=extra)
            if prof is not None:
                t_now = prof.now()
                prof.add(
                    "dispatch", t_now - t_mark,
                    work=self.dispatcher.stats.messages - n_sent,
                    alloc=prof.alloc_since(a_mark),
                )

        # The service pass (repro.join.service.ServiceTable): every
        # instance served in one pass, then one fold of its report block.
        end = now + dt
        table = self._service
        n_served = table.run(now, dt, prof=prof)
        self._qlen_sum = table.qlen_sum
        self._qlen_max = table.qlen_max
        self._qlen_valid = True
        if prof is not None:
            t_mark = prof.now()
            a_mark = prof.mark_alloc()
        tick_sums = None
        if n_served:
            tick_sums = self.metrics.record_service_many(end, table)
        if prof is not None:
            t_now = prof.now()
            prof.add(
                "service.fold", t_now - t_mark, work=n_served,
                alloc=prof.alloc_since(a_mark),
            )
            t_mark = t_now
            a_mark = prof.mark_alloc()
        if obs is not None and n_served:
            tot_results, lat_sum, *comps = tick_sums
            obs.on_service_tick(
                end, n_served, tot_results, lat_sum, n_served,
                components=tuple(comps),
            )

        migrated = False
        for monitor in self.monitors.values():
            if monitor.tick(end):
                migrated = True
        if migrated:
            # Migrations move queued tuples between instances outside the
            # service loop; the cached lengths no longer hold.
            self._qlen_valid = False

        # Elasticity is evaluated after the monitors so its signals (the
        # load tables, the smoothed backlogs) reflect this tick's samples.
        if self.elastic is not None:
            self.elastic.tick(self, end)

        if self._next_rotation is not None and end >= self._next_rotation:
            self._next_rotation += self.window_rotation_period  # type: ignore[operator]
            for inst in self._instances:
                inst.rotate_window()
        if prof is not None:
            prof.add(
                "monitor", prof.now() - t_mark,
                alloc=prof.alloc_since(a_mark),
            )

        self.clock.advance()
        self.tick_index += 1
        if obs is not None:
            obs.on_tick(end, self.tick_index, throttled)
        if self.guards is not None:
            self.guards.after_tick(self, end)

    def run(
        self,
        duration: float | None = None,
        drain: bool = True,
        max_duration: float = 3600.0,
    ) -> RunMetrics:
        """Run until ``duration`` (simulated seconds) or source exhaustion.

        Parameters
        ----------
        duration:
            Stop after this much simulated time.  ``None`` requires finite
            sources and runs until they are exhausted and drained.
        drain:
            After the sources dry up, keep ticking until every queue is
            empty (so trailing tuples count toward throughput/latency).
        max_duration:
            Hard safety stop — a mis-calibrated system whose queues grow
            without bound should fail loudly, not hang.
        """
        if duration is None and (
            self.r_source.total is None or self.s_source.total is None
        ):
            raise SimulationError("duration=None requires finite sources")
        while True:
            now = self.clock.now
            if duration is not None and now >= duration:
                break
            if now >= max_duration:
                raise SimulationError(
                    f"simulation exceeded max_duration={max_duration}s "
                    f"(backlog={self._backlog()} tuples); "
                    "the system is likely overloaded beyond recovery"
                )
            sources_done = self.r_source.exhausted and self.s_source.exhausted
            if sources_done:
                if not drain or self._backlog() == 0:
                    break
            self.step()
        return self.metrics.finalize()

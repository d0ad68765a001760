"""Run-time metrics: throughput, latency, load-imbalance time series.

The paper reports (section VI-A):

- *throughput* — join-result tuples obtained per second (their counter bolt);
- *latency* — average time tuples spend in a join instance from arrival to
  completion;
- *degree of load imbalance* ``LI`` — reported every second;
- migration events (Fig. 11 discussion: each migration takes < 1 s).

:class:`MetricsCollector` bins everything into per-simulated-second buckets
so benches can print exactly those series.  Latency keeps an exact running
mean plus a bounded reservoir for percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from ..attribution import close_decomposition
from .arena import Arena
from .columns import R_TAKE

__all__ = [
    "MetricsCollector",
    "RunMetrics",
    "MigrationEvent",
    "Reservoir",
    "PerSecond",
    "bin_per_second",
]


class Reservoir:
    """Fixed-size uniform reservoir sample of a float stream (Vitter's R).

    Keeps percentile estimates memory-bounded no matter how many latency
    samples a long run produces.
    """

    def __init__(self, capacity: int = 4096, seed: int = 0) -> None:
        self._capacity = int(capacity)
        # One slot past the end is a write-off target: replacement draws
        # that land outside the reservoir are redirected there instead of
        # being filtered out with a boolean mask (DESIGN §9).  values()
        # never exposes it.
        self._buf = np.empty(self._capacity + 1, dtype=np.float64)
        self._n_seen = 0
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._arena = Arena()

    def add_many(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        n = values.shape[0]
        if n == 0:
            return
        start = self._n_seen
        fill = min(max(self._capacity - start, 0), n)
        if fill:
            self._buf[start : start + fill] = values[:fill]
        rest = values[fill:]
        m = rest.shape[0]
        if m:
            # Vectorised Vitter's R: item i (0-based global index g) replaces
            # a uniformly random slot j in [0, g]; kept only if j < capacity.
            # Later duplicates overwrite earlier ones, matching the
            # sequential algorithm's behaviour.  All scratch lives in the
            # reservoir's arena and the rejected draws are clamped onto the
            # write-off slot, so a steady-state call allocates nothing.
            # Every quantity is an exact integer below 2**53, so computing
            # g + 1 as iota(m) + (start + fill + 1) is bit-identical to the
            # former (start + fill + arange) + 1.0, and the unsafe copyto
            # truncates exactly like .astype(np.int64) did.
            g1 = self._arena.array("rsv_g", m, np.float64)
            np.add(self._arena.iota(m), float(start + fill + 1), out=g1)
            r = self._arena.array("rsv_r", m, np.float64)
            self._rng.random(out=r)
            np.multiply(r, g1, out=r)
            j = self._arena.array("rsv_j", m, np.int64)
            np.copyto(j, r, casting="unsafe")
            np.minimum(j, self._capacity, out=j)
            self._buf[j] = rest
        self._n_seen += n

    @property
    def n_seen(self) -> int:
        return self._n_seen

    def values(self) -> np.ndarray:
        return self._buf[: min(self._n_seen, self._capacity)].copy()

    def percentile(self, q: float) -> float:
        vals = self.values()
        if vals.size == 0:
            return float("nan")
        return float(np.percentile(vals, q))


@dataclass(frozen=True)
class MigrationEvent:
    """One executed migration, for the Fig. 11 narrative.

    ``keys`` records the exact migrated key set so validation tooling can
    replay the same migration schedule against the exact-semantics oracle
    (:mod:`repro.validate.differential`); it is empty only for events
    constructed by legacy callers.
    """

    time: float
    side: str
    source: int
    target: int
    n_keys: int
    n_tuples: int
    duration: float
    li_before: float
    li_after_estimate: float
    keys: tuple[int, ...] = ()
    #: why the transfer happened: ``"balance"`` for a monitor-triggered
    #: migration (the default), ``"failover"`` for a fault-injected
    #: crash hand-off, ``"scaleout"`` for the seeding transfer into a
    #: freshly provisioned elastic instance, ``"scalein"`` for the
    #: reverse-migration drain of a retiring one.  Hysteresis invariants
    #: only apply to the first.
    reason: str = "balance"


@dataclass
class RunMetrics:
    """Immutable result of a finished run (what benches consume).

    All series are aligned per-second arrays; ``seconds[i]`` is the *end* of
    the i-th one-second window.
    """

    seconds: np.ndarray
    throughput: np.ndarray          # join results / s
    processed: np.ndarray           # input tuples served / s
    latency_mean: np.ndarray        # mean latency of tuples completed in bin
    li: dict[str, np.ndarray]       # per-side load-imbalance series
    migrations: list[MigrationEvent]
    latency_overall_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    total_results: int
    total_processed: int
    duration: float
    warmup: float = 0.0
    # Latency-attribution component series (DESIGN §5), aligned with
    # ``latency_mean`` and NaN exactly where it is NaN.  Standing identity,
    # elementwise wherever finite (exact summation — math.fsum):
    #   fsum(latency_queue_wait, latency_service,
    #        latency_migration_pause, latency_recovery_pause)
    #       == latency_mean                                 (bit-exact)
    # queue_wait is the residual closed by repro.attribution.close_residual.
    latency_queue_wait: np.ndarray = field(default_factory=lambda: np.empty(0))
    latency_service: np.ndarray = field(default_factory=lambda: np.empty(0))
    latency_migration_pause: np.ndarray = field(default_factory=lambda: np.empty(0))
    latency_recovery_pause: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: post-warm-up component sums (seconds of wait, summed over tuples)
    #: under the same identity against the overall latency sum.
    component_totals: dict[str, float] = field(default_factory=dict)
    #: per-side instance-count series as ``[(time, n_per_side), ...]``,
    #: one entry per elastic scale event; empty when the group never
    #: changed size (the count is then the configured ``n_instances``).
    instance_counts: list = field(default_factory=list)

    def components(self) -> dict[str, np.ndarray]:
        """The four attribution series, keyed by component name."""
        return {
            "queue_wait": self.latency_queue_wait,
            "service": self.latency_service,
            "migration_pause": self.latency_migration_pause,
            "recovery_pause": self.latency_recovery_pause,
        }

    def steady(self, attr: str) -> np.ndarray:
        """A series restricted to the post-warm-up region.

        The paper discards the first minutes of each run ("we only record
        the stable statistics", section VI-A); ``warmup`` plays that role.
        """
        series = getattr(self, attr)
        mask = self.seconds > self.warmup
        return series[mask]

    @property
    def mean_throughput(self) -> float:
        vals = self.steady("throughput")
        return float(vals.mean()) if vals.size else 0.0

    @property
    def mean_latency(self) -> float:
        vals = self.steady("latency_mean")
        vals = vals[np.isfinite(vals)]
        return float(vals.mean()) if vals.size else float("nan")


class PerSecond(NamedTuple):
    """Per-simulated-second series produced by :func:`bin_per_second`."""

    seconds: np.ndarray
    throughput: np.ndarray
    processed: np.ndarray
    latency_mean: np.ndarray
    #: attribution mean series keyed like :meth:`RunMetrics.components`
    components: dict[str, np.ndarray]
    li: dict[str, np.ndarray]


def bin_per_second(
    max_time: float,
    *,
    results: Iterable[tuple[int, float]],
    processed: Iterable[tuple[int, float]],
    latency: Iterable[tuple[int, float, int]],
    service: Iterable[tuple[int, float]],
    migration: Iterable[tuple[int, float]],
    recovery: Iterable[tuple[int, float]],
    li: dict[str, Iterable[tuple[float, float]]],
) -> PerSecond:
    """Bin per-second sums into the series a :class:`RunMetrics` carries.

    Each series input yields ``(second, value)`` pairs (``latency`` yields
    ``(second, latency_sum, latency_count)``), added into the bins in the
    order given, so a caller chooses its own summation order.  ``li`` maps
    each side to ``(time, li)`` samples.

    An input recorded at exactly ``t == n_sec`` (an integer run end) falls
    in the last window, whose *end* is ``n_sec``: it is clamped instead of
    dropped, so series sums equal the lifetime totals.  Bins without
    latency samples are NaN.  The attribution components are per-tuple
    means, with the queue-wait residual closed *at the mean level* so the
    components sum bit-exactly to ``latency_mean`` despite the
    non-distributive division by the bin count.  The last LI sample in a
    second wins.
    """
    n_sec = int(np.ceil(max_time)) if max_time > 0 else 1
    last = n_sec - 1

    def binned(pairs: Iterable[tuple[int, float]]) -> np.ndarray:
        out = np.zeros(n_sec)
        for sec, v in pairs:
            out[min(sec, last)] += v
        return out

    lat_sum = np.zeros(n_sec)
    lat_cnt = np.zeros(n_sec, dtype=np.int64)
    for sec, s, c in latency:
        lat_sum[min(sec, last)] += s
        lat_cnt[min(sec, last)] += c
    nz = lat_cnt > 0

    def mean(sums: np.ndarray) -> np.ndarray:
        out = np.full(n_sec, np.nan)
        out[nz] = sums[nz] / lat_cnt[nz]
        return out

    lat = mean(lat_sum)
    qw = np.full(n_sec, np.nan)
    sv = mean(binned(service))
    mg = mean(binned(migration))
    rc = mean(binned(recovery))
    for i in np.nonzero(nz)[0].tolist():
        qw[i], sv[i], mg[i], rc[i] = close_decomposition(
            float(lat[i]), float(sv[i]), float(mg[i]), float(rc[i]),
        )
    li_series: dict[str, np.ndarray] = {}
    for side, samples in li.items():
        arr = np.full(n_sec, np.nan)
        for t, v in samples:
            arr[min(int(t), last)] = v  # last sample in the second wins
        li_series[side] = arr
    return PerSecond(
        seconds=np.arange(1, n_sec + 1, dtype=np.float64),
        throughput=binned(results),
        processed=binned(processed),
        latency_mean=lat,
        components={
            "queue_wait": qw,
            "service": sv,
            "migration_pause": mg,
            "recovery_pause": rc,
        },
        li=li_series,
    )


class MetricsCollector:
    """Accumulates per-second statistics during a run."""

    def __init__(
        self,
        warmup: float = 0.0,
        reservoir_capacity: int = 4096,
        reservoir_seed: int = 0,
    ) -> None:
        self._results: dict[int, float] = {}
        self._processed: dict[int, int] = {}
        self._lat_sum: dict[int, float] = {}
        self._lat_cnt: dict[int, int] = {}
        # Latency-attribution component sums per second (DESIGN §5).  The
        # three measured components accumulate in the same per-report order
        # as ``_lat_sum``; the queue-wait residual is re-closed against the
        # second's running totals after every recording, so the identity
        #   fsum(qw, service, migration, recovery) == lat_sum
        # holds bit-exactly at all times (what the attribution invariant
        # guard re-verifies mid-run).
        self._comp_service: dict[int, float] = {}
        self._comp_migration: dict[int, float] = {}
        self._comp_recovery: dict[int, float] = {}
        self._comp_queue_wait: dict[int, float] = {}
        # Post-warm-up lifetime component sums (queue wait closed lazily).
        self._comp_total_service = 0.0
        self._comp_total_migration = 0.0
        self._comp_total_recovery = 0.0
        self._li: dict[str, list[tuple[float, float]]] = {}
        self._migrations: list[MigrationEvent] = []
        self._instance_counts: list[tuple[float, int]] = []
        # The reservoir's replacement draws come from the run seed so that
        # reported percentiles are a pure function of (config, seed), like
        # every other statistic.
        self._reservoir = Reservoir(reservoir_capacity, seed=reservoir_seed)
        # Scratch for the per-tick latency concatenation (DESIGN §9).
        self._arena = Arena()
        self._total_results = 0
        self._total_processed = 0
        self._lat_total = 0.0
        self._lat_total_n = 0
        self._warmup = float(warmup)
        self._max_time = 0.0
        # Optional observability bundle (repro.obs); one test per record.
        self.obs = None

    # -- recording ----------------------------------------------------- #

    def record_service(
        self,
        now: float,
        n_processed: int,
        n_results: float,
        latencies: np.ndarray | None,
        *,
        comp_service: np.ndarray | None = None,
        comp_migration: np.ndarray | None = None,
        comp_recovery: np.ndarray | None = None,
    ) -> None:
        """Record one instance-tick of work finishing at time ``now``.

        The ``comp_*`` arrays are the tuple-aligned attribution components
        from the :class:`~repro.join.instance.ServiceReport`; omitted
        components count as zero (the queue-wait residual then absorbs the
        whole latency, keeping the identity trivially exact).
        """
        sec = int(now)
        self._max_time = max(self._max_time, now)
        if n_processed:
            self._processed[sec] = self._processed.get(sec, 0) + int(n_processed)
            self._total_processed += int(n_processed)
        if n_results:
            self._results[sec] = self._results.get(sec, 0.0) + float(n_results)
            self._total_results += int(round(n_results))
        if latencies is not None and latencies.size:
            s = float(latencies.sum())
            self._lat_sum[sec] = self._lat_sum.get(sec, 0.0) + s
            self._lat_cnt[sec] = self._lat_cnt.get(sec, 0) + int(latencies.size)
            sv = float(comp_service.sum()) if comp_service is not None else 0.0
            mg = float(comp_migration.sum()) if comp_migration is not None else 0.0
            rc = float(comp_recovery.sum()) if comp_recovery is not None else 0.0
            if sv:
                self._comp_service[sec] = self._comp_service.get(sec, 0.0) + sv
            if mg:
                self._comp_migration[sec] = self._comp_migration.get(sec, 0.0) + mg
            if rc:
                self._comp_recovery[sec] = self._comp_recovery.get(sec, 0.0) + rc
            self._close_second(sec)
            if now >= self._warmup:
                self._lat_total += s
                self._lat_total_n += int(latencies.size)
                self._comp_total_service += sv
                self._comp_total_migration += mg
                self._comp_total_recovery += rc
                self._reservoir.add_many(latencies)
        if self.obs is not None:
            self.obs.on_record_service(
                now, n_processed, n_results, latencies,
                comp_service=comp_service,
                comp_migration=comp_migration,
                comp_recovery=comp_recovery,
            )

    def record_service_many(
        self, now: float, reports
    ) -> tuple[float, float, float, float, float]:
        """Record every instance's work for one tick ending at ``now``.

        Equivalent to calling :meth:`record_service` once per report in
        order — counters and per-second float sums accumulate in the same
        sequence — but the latency reservoir is fed one concatenated array
        per tick instead of one call per instance.  The reservoir state is
        bit-identical either way: its replacement draws come from a stream
        generator, so chunking the input differently does not change which
        random numbers each sample sees.

        Returns the tick's sums ``(results, latency, service,
        migration_pause, recovery_pause)``, each added from 0.0 in report
        order, so the runtime can stamp them onto the service trace event
        without re-summing the reports.

        ``reports`` may also be a :class:`~repro.join.service.ServiceTable`
        after its pass: its report block is folded in column order with the
        same additions, from the per-instance sums the pass computed.
        """
        if hasattr(reports, "rep_f"):
            return self._fold_table(now, reports)
        sec = int(now)
        self._max_time = max(self._max_time, now)
        in_window = now >= self._warmup
        lat_arrays = []
        obs = self.obs
        # ndarray.sum() is np.add.reduce plus a dispatch wrapper; with ~2
        # small reductions per report per tick the wrapper is measurable,
        # and the pairwise summation underneath is the same either way.
        _sum = np.add.reduce
        results_by_sec = self._results
        lat_sum_by_sec = self._lat_sum
        comp_sv_by_sec = self._comp_service
        comp_mg_by_sec = self._comp_migration
        comp_rc_by_sec = self._comp_recovery
        # Integer counters are associative, so they accumulate in tick-local
        # variables and land in the dicts once.  The float per-second sums
        # must keep the per-report addition order (float addition is not),
        # so those dict updates stay inside the loop.
        tick_processed = 0
        tick_results_int = 0
        tick_results = 0.0
        tick_lat = 0.0
        tick_lat_n = 0
        tick_lat_n_window = 0
        tick_sv = 0.0
        tick_mg = 0.0
        tick_rc = 0.0
        for rep in reports:
            n_processed = rep.n_processed
            n_results = rep.n_results
            latencies = rep.latencies
            if n_processed:
                tick_processed += int(n_processed)
            tick_results += float(n_results)
            if n_results:
                results_by_sec[sec] = results_by_sec.get(sec, 0.0) + float(n_results)
                tick_results_int += int(round(n_results))
            if latencies is not None and latencies.size:
                s = float(_sum(latencies))
                tick_lat += s
                lat_sum_by_sec[sec] = lat_sum_by_sec.get(sec, 0.0) + s
                tick_lat_n += int(latencies.size)
                ca = rep.comp_service
                if ca is not None:
                    sv = float(_sum(ca))
                    if sv:
                        comp_sv_by_sec[sec] = comp_sv_by_sec.get(sec, 0.0) + sv
                        tick_sv += sv
                ca = rep.comp_migration
                if ca is not None:
                    mg = float(_sum(ca))
                    if mg:
                        comp_mg_by_sec[sec] = comp_mg_by_sec.get(sec, 0.0) + mg
                        tick_mg += mg
                ca = rep.comp_recovery
                if ca is not None:
                    rc = float(_sum(ca))
                    if rc:
                        comp_rc_by_sec[sec] = comp_rc_by_sec.get(sec, 0.0) + rc
                        tick_rc += rc
                if in_window:
                    self._lat_total += s
                    tick_lat_n_window += int(latencies.size)
                    lat_arrays.append(latencies)
            if obs is not None:
                obs.on_record_service(
                    now, n_processed, n_results, latencies,
                    comp_service=rep.comp_service,
                    comp_migration=rep.comp_migration,
                    comp_recovery=rep.comp_recovery,
                )
        if tick_processed:
            self._processed[sec] = self._processed.get(sec, 0) + tick_processed
            self._total_processed += tick_processed
        self._total_results += tick_results_int
        if tick_lat_n:
            self._lat_cnt[sec] = self._lat_cnt.get(sec, 0) + tick_lat_n
            # Re-close the second's queue-wait residual against its updated
            # running sums: the identity holds bit-exactly after every tick.
            self._close_second(sec)
            if in_window:
                self._comp_total_service += tick_sv
                self._comp_total_migration += tick_mg
                self._comp_total_recovery += tick_rc
        self._lat_total_n += tick_lat_n_window
        if lat_arrays:
            if len(lat_arrays) == 1:
                self._reservoir.add_many(lat_arrays[0])
            else:
                # Concatenate into collector-owned scratch: the inputs alias
                # the instances' arenas and the reservoir only reads, so the
                # whole hand-off stays allocation-free.
                total = 0
                for a in lat_arrays:
                    total += a.shape[0]
                cat = self._arena.array("lat_cat", total, np.float64)
                np.concatenate(lat_arrays, out=cat)
                self._reservoir.add_many(cat)
        return tick_results, tick_lat, tick_sv, tick_mg, tick_rc

    def _fold_table(self, now: float, table):
        """:meth:`record_service_many` over a service table's report block.

        The per-report float additions happen in the same order on the
        same values: the pass summed each instance's latencies and
        components with numpy's pairwise order (``np.add.reduce``), the
        table's :meth:`~repro.join.service.ServiceTable.fold` adds them in
        column order, and a zero sum still creates no per-second key.  The
        served latencies are already concatenated in the block, so the
        reservoir reads them in place.
        """
        sec = int(now)
        self._max_time = max(self._max_time, now)
        in_window = now >= self._warmup
        by_sec = (self._results, self._comp_service, self._comp_migration,
                  self._comp_recovery)
        running, tick, n_take, n_results = table.fold(
            [self._results.get(sec), self._lat_sum.get(sec, 0.0),
             self._lat_total, self._comp_service.get(sec),
             self._comp_migration.get(sec), self._comp_recovery.get(sec)],
            in_window,
        )
        if not n_take:
            return 0.0, 0.0, 0.0, 0.0, 0.0
        results, self._lat_sum[sec], self._lat_total, *comps = running
        for d, value in zip(by_sec, (results, *comps)):
            if value is not None:
                d[sec] = value
        self._total_results += n_results
        self._processed[sec] = self._processed.get(sec, 0) + n_take
        self._total_processed += n_take
        self._lat_cnt[sec] = self._lat_cnt.get(sec, 0) + n_take
        self._close_second(sec)
        if in_window:
            self._comp_total_service += tick[2]
            self._comp_total_migration += tick[3]
            self._comp_total_recovery += tick[4]
            self._lat_total_n += n_take
            self._reservoir.add_many(table.lat[:n_take])
        obs = self.obs
        if obs is not None:
            for slot in np.flatnonzero(table.rep_i[R_TAKE] > 0).tolist():
                rep = table.report(slot)
                obs.on_record_service(
                    now, rep.n_processed, rep.n_results, rep.latencies,
                    comp_service=rep.comp_service,
                    comp_migration=rep.comp_migration,
                    comp_recovery=rep.comp_recovery,
                )
        return tuple(tick)

    def _close_second(self, sec: int) -> None:
        """Re-close one second's attribution identity against its sums.

        Solves the queue-wait residual; in the rare rounding-tie case a
        measured component comes back nudged by one ulp (see
        :func:`repro.attribution.close_decomposition`) and the stored sum
        is updated so the guard's independent re-check sees exactly the
        closing decomposition.
        """
        sv = self._comp_service.get(sec, 0.0)
        mg = self._comp_migration.get(sec, 0.0)
        rc = self._comp_recovery.get(sec, 0.0)
        q, sv2, mg2, rc2 = close_decomposition(self._lat_sum[sec], sv, mg, rc)
        self._comp_queue_wait[sec] = q
        if sv2 != sv:
            self._comp_service[sec] = sv2
        if mg2 != mg:
            self._comp_migration[sec] = mg2
        if rc2 != rc:
            self._comp_recovery[sec] = rc2

    def component_sums(self) -> dict[str, dict[int, float]]:
        """Live per-second attribution sums (the invariant guard's view).

        ``latency`` maps each second to its running latency sum; the four
        component dicts satisfy the forward-sum identity against it after
        every recorded tick.
        """
        return {
            "latency": self._lat_sum,
            "queue_wait": self._comp_queue_wait,
            "service": self._comp_service,
            "migration_pause": self._comp_migration,
            "recovery_pause": self._comp_recovery,
        }

    def record_li(self, side: str, now: float, li: float) -> None:
        self._li.setdefault(side, []).append((now, li))
        self._max_time = max(self._max_time, now)

    def record_migration(self, event: MigrationEvent) -> None:
        self._migrations.append(event)

    def record_instance_count(self, now: float, n_per_side: int) -> None:
        """Record a group-size change (elastic scale-out/scale-in)."""
        self._instance_counts.append((float(now), int(n_per_side)))
        self._max_time = max(self._max_time, now)

    def migration_events(self) -> list[MigrationEvent]:
        """Live view of migrations recorded so far (used by the validation
        layer to mirror the migration schedule mid-run, before
        ``finalize``)."""
        return list(self._migrations)

    # -- finalisation --------------------------------------------------- #

    def finalize(self) -> RunMetrics:
        binned = bin_per_second(
            self._max_time,
            results=self._results.items(),
            processed=self._processed.items(),
            latency=(
                (sec, s, self._lat_cnt.get(sec, 0))
                for sec, s in self._lat_sum.items()
            ),
            service=self._comp_service.items(),
            migration=self._comp_migration.items(),
            recovery=self._comp_recovery.items(),
            li=self._li,
        )
        overall_lat = (
            self._lat_total / self._lat_total_n if self._lat_total_n else float("nan")
        )
        if self._lat_total_n:
            total_qw, total_sv, total_mg, total_rc = close_decomposition(
                self._lat_total,
                self._comp_total_service,
                self._comp_total_migration,
                self._comp_total_recovery,
            )
        else:
            total_qw = 0.0
            total_sv = self._comp_total_service
            total_mg = self._comp_total_migration
            total_rc = self._comp_total_recovery
        component_totals = {
            "queue_wait": total_qw,
            "service": total_sv,
            "migration_pause": total_mg,
            "recovery_pause": total_rc,
            "latency_sum": self._lat_total,
            "count": float(self._lat_total_n),
        }
        comps = binned.components
        return RunMetrics(
            seconds=binned.seconds,
            throughput=binned.throughput,
            processed=binned.processed,
            latency_mean=binned.latency_mean,
            li=binned.li,
            migrations=list(self._migrations),
            latency_overall_mean=overall_lat,
            latency_p50=self._reservoir.percentile(50),
            latency_p95=self._reservoir.percentile(95),
            latency_p99=self._reservoir.percentile(99),
            total_results=self._total_results,
            total_processed=self._total_processed,
            duration=self._max_time,
            warmup=self._warmup,
            latency_queue_wait=comps["queue_wait"],
            latency_service=comps["service"],
            latency_migration_pause=comps["migration_pause"],
            latency_recovery_pause=comps["recovery_pause"],
            component_totals=component_totals,
            instance_counts=list(self._instance_counts),
        )

"""Replay a recorded JSONL trace into a terminal report.

``python -m repro inspect run.jsonl`` reconstructs, from events alone:

- the per-second throughput / processed / latency series (the section
  VI-A measurements) — rebinned by the engine's own
  :func:`~repro.engine.metrics.bin_per_second`, so a traced run's series
  match its :class:`~repro.engine.metrics.RunMetrics`;
- the per-side LI series and the per-instance load envelope over time
  (the Fig. 1c view), from ``li_sample`` events;
- every migration span as a phase waterfall (the Fig. 11 view), from
  ``span`` events grouped by ``span_id``;
- the top-N hot keys, from the per-dispatch key summaries.

The module is read-only over the trace format defined in
:mod:`repro.obs.events`; of the engine it uses only the binning function,
so traces can be inspected anywhere the package is installed.
"""

from __future__ import annotations

import json
import math
import pathlib
from collections import Counter as TallyCounter
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..engine.metrics import PerSecond, bin_per_second
from .events import MIGRATION_PHASES

__all__ = [
    "SpanTimeline",
    "InspectReport",
    "read_events",
    "build_report",
    "render_report",
]

_SPARK_LEVELS = " ▁▂▃▄▅▆▇█"


class TraceFormatError(ValueError):
    """The trace file is malformed or empty."""


def read_events(path) -> list[dict]:
    """Parse a JSONL trace; every line must be an object with ts/kind."""
    path = pathlib.Path(path)
    events: list[dict] = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
            if not isinstance(obj, dict) or "ts" not in obj or "kind" not in obj:
                raise TraceFormatError(
                    f"{path}:{lineno}: expected an object with 'ts' and 'kind'"
                )
            events.append(obj)
    return events


@dataclass
class SpanTimeline:
    """One reconstructed span (a migration's Fig. 11 timeline)."""

    span_id: int
    name: str
    side: str = "?"
    source: int = -1
    target: int = -1
    phases: list[tuple[str, float, float]] = field(default_factory=list)
    n_keys: int = 0
    n_tuples: int = 0
    li_before: float = float("nan")
    li_after_estimate: float = float("nan")

    @property
    def start(self) -> float:
        return self.phases[0][1] if self.phases else float("nan")

    @property
    def end(self) -> float:
        return self.phases[-1][2] if self.phases else float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def monotone(self) -> bool:
        """Timestamps tile the span without going backwards."""
        prev = -math.inf
        for _, t0, t1 in self.phases:
            if t0 < prev - 1e-12 or t1 < t0 - 1e-12:
                return False
            prev = t1
        return True

    @property
    def complete(self) -> bool:
        """All protocol phases present, in order, with monotone times."""
        return (
            tuple(p for p, _, _ in self.phases) == MIGRATION_PHASES
            and self.monotone
        )


@dataclass
class InspectReport:
    """Everything ``render_report`` needs, reconstructed from events."""

    meta: dict
    n_events: int
    kind_counts: dict
    seconds: np.ndarray
    throughput: np.ndarray
    processed: np.ndarray
    latency_mean: np.ndarray
    li: dict            # side -> per-second array
    envelope: dict      # side -> {"times": arr, "loads": (n_samples, n_inst)}
    spans: list
    hot_keys: dict      # stream -> [(key, count), ...] descending
    guard_violations: list
    n_ticks: int
    n_throttled: int
    #: latency-attribution mean series (DESIGN §5), component name ->
    #: per-second array aligned with ``latency_mean``; queue_wait is the
    #: residual closed bit-exactly against it, matching ``RunMetrics``.
    components: dict = field(default_factory=dict)

    @property
    def complete_spans(self) -> list:
        return [s for s in self.spans if s.complete]


def _per_second(events: list[dict]) -> PerSecond:
    """Rebin service and LI events with the engine's own binning.

    Traces without component fields (pre-attribution recordings) degrade
    to queue_wait == latency_mean, keeping the identity trivially true.
    """
    service = [e for e in events if e["kind"] == "service"]
    li_events = [e for e in events if e["kind"] == "li_sample"]
    max_time = max(
        (float(e["ts"]) for e in service + li_events), default=0.0
    )
    secs = [int(float(e["ts"])) for e in service]

    def column(name: str) -> list[tuple[int, float]]:
        return [(sec, float(e.get(name, 0.0))) for sec, e in zip(secs, service)]

    li: dict[str, list[tuple[float, float]]] = {}
    for e in li_events:
        li.setdefault(e.get("side", "?"), []).append(
            (float(e["ts"]), float(e["li"]))
        )
    return bin_per_second(
        max_time,
        results=column("n_results"),
        processed=column("n_processed"),
        latency=[
            (sec, float(e.get("latency_sum", 0.0)),
             int(e.get("latency_count", 0)))
            for sec, e in zip(secs, service)
        ],
        service=column("comp_service"),
        migration=column("comp_migration"),
        recovery=column("comp_recovery"),
        li=li,
    )


def _envelope(events: list[dict]) -> dict:
    """Per-side (times, per-instance load matrix) from li_sample events."""
    out: dict[str, dict] = {}
    rows: dict[str, list[tuple[float, list]]] = defaultdict(list)
    for e in events:
        if e["kind"] != "li_sample" or "loads" not in e:
            continue
        loads = sorted(e["loads"], key=lambda entry: entry[0])
        rows[e.get("side", "?")].append(
            (float(e["ts"]), [entry[3] for entry in loads])
        )
    for side, samples in rows.items():
        widths = {len(r) for _, r in samples}
        if len(widths) != 1:
            # instance count changed mid-trace; keep the dominant width
            width = TallyCounter(len(r) for _, r in samples).most_common(1)[0][0]
            samples = [(t, r) for t, r in samples if len(r) == width]
        out[side] = {
            "times": np.array([t for t, _ in samples]),
            "loads": np.array([r for _, r in samples], dtype=np.float64),
        }
    return out


def _spans(events: list[dict]) -> list[SpanTimeline]:
    spans: dict[int, SpanTimeline] = {}
    for e in events:
        if e["kind"] != "span":
            continue
        sid = int(e.get("span_id", -1))
        span = spans.get(sid)
        if span is None:
            span = spans[sid] = SpanTimeline(
                span_id=sid, name=str(e.get("name", "?"))
            )
        span.side = str(e.get("side", span.side))
        span.source = int(e.get("source", span.source))
        span.target = int(e.get("target", span.target))
        span.phases.append(
            (str(e.get("phase", "?")), float(e["t0"]), float(e["t1"]))
        )
        for attr in ("n_keys", "n_tuples"):
            if attr in e:
                setattr(span, attr, int(e[attr]))
        for attr in ("li_before", "li_after_estimate"):
            if attr in e:
                setattr(span, attr, float(e[attr]))
    for span in spans.values():
        span.phases.sort(key=lambda p: (p[1], p[2]))
    return [spans[sid] for sid in sorted(spans)]


def _hot_keys(events: list[dict]) -> dict:
    """Approximate hottest keys from per-dispatch top-key summaries.

    Each dispatch event records only its own top keys, so counts are a
    lower bound — but a key hot overall is hot in nearly every tick's
    batch, which makes the ranking stable in practice."""
    tallies: dict[str, TallyCounter] = defaultdict(TallyCounter)
    for e in events:
        if e["kind"] != "dispatch":
            continue
        for key, count in e.get("top_keys", []):
            tallies[e.get("stream", "?")][int(key)] += int(count)
    return {
        stream: tally.most_common() for stream, tally in sorted(tallies.items())
    }


def build_report(events: list[dict]) -> InspectReport:
    """Reconstruct an :class:`InspectReport` from parsed trace events."""
    if not events:
        raise TraceFormatError("trace contains no events")
    kind_counts = dict(TallyCounter(e["kind"] for e in events))
    meta = next((e for e in events if e["kind"] == "run_meta"), {})
    binned = _per_second(events)
    ticks = [e for e in events if e["kind"] == "tick"]
    return InspectReport(
        meta={k: v for k, v in meta.items() if k not in ("ts", "kind")},
        n_events=len(events),
        kind_counts=kind_counts,
        seconds=binned.seconds,
        throughput=binned.throughput,
        processed=binned.processed,
        latency_mean=binned.latency_mean,
        li=binned.li,
        envelope=_envelope(events),
        spans=_spans(events),
        hot_keys=_hot_keys(events),
        guard_violations=[e for e in events if e["kind"] == "guard_violation"],
        n_ticks=len(ticks),
        n_throttled=sum(1 for e in ticks if e.get("throttled")),
        components=binned.components,
    )


# --------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------- #


def _spark(values: np.ndarray) -> str:
    vals = np.nan_to_num(np.asarray(values, dtype=np.float64), nan=0.0)
    if vals.size == 0:
        return ""
    hi = vals.max()
    if hi <= 0:
        return _SPARK_LEVELS[0] * vals.size
    idx = np.minimum(
        (vals / hi * (len(_SPARK_LEVELS) - 1)).astype(int),
        len(_SPARK_LEVELS) - 1,
    )
    return "".join(_SPARK_LEVELS[i] for i in idx)


def _waterfall(span: SpanTimeline, width: int = 44) -> list[str]:
    lines = [
        f"  span #{span.span_id} [{span.name}] side={span.side} "
        f"{span.source} -> {span.target}  t={span.start:.3f}s "
        f"dur={span.duration * 1e3:.1f}ms  keys={span.n_keys} "
        f"tuples={span.n_tuples}  LI {span.li_before:.2f} -> "
        f"{span.li_after_estimate:.2f} (est)"
        + ("" if span.complete else "  [INCOMPLETE]")
    ]
    total = max(span.duration, 1e-12)
    for phase, t0, t1 in span.phases:
        lo = int(round((t0 - span.start) / total * width))
        hi = int(round((t1 - span.start) / total * width))
        bar = " " * lo + "█" * max(hi - lo, 1)
        lines.append(
            f"    {phase:<9}|{bar.ljust(width + 1)}| "
            f"+{(t0 - span.start) * 1e3:7.2f}ms  "
            f"{(t1 - t0) * 1e3:7.2f}ms"
        )
    return lines


def render_report(report: InspectReport, top: int = 10) -> str:
    """The terminal report for one trace."""
    lines: list[str] = []
    meta = ", ".join(f"{k}={v}" for k, v in report.meta.items())
    lines.append(f"trace: {report.n_events} events ({meta or 'no run_meta'})")
    kinds = ", ".join(
        f"{k}={v}" for k, v in sorted(report.kind_counts.items())
    )
    lines.append(f"  kinds: {kinds}")
    lines.append(
        f"  ticks: {report.n_ticks} ({report.n_throttled} throttled)"
    )

    lines.append("")
    lines.append(
        f"per-second series ({report.seconds.shape[0]} s, VI-A measurements)"
    )
    thr = report.throughput
    lines.append(
        f"  throughput  {_spark(thr)}  "
        f"mean={thr.mean():.1f}/s max={thr.max():.1f}/s "
        f"total={thr.sum():.0f}"
    )
    proc = report.processed
    lines.append(
        f"  processed   {_spark(proc)}  "
        f"mean={proc.mean():.1f}/s total={proc.sum():.0f}"
    )
    finite_lat = report.latency_mean[np.isfinite(report.latency_mean)]
    if finite_lat.size:
        lines.append(
            f"  latency     {_spark(np.nan_to_num(report.latency_mean))}  "
            f"mean={finite_lat.mean() * 1e3:.2f}ms "
            f"worst-second={finite_lat.max() * 1e3:.2f}ms"
        )
        # Latency attribution: where each second's mean latency went.
        # Components sum bit-exactly to latency_mean (DESIGN §5).
        lat_total = float(finite_lat.sum())
        for name in ("queue_wait", "service", "migration_pause",
                     "recovery_pause"):
            series = report.components.get(name)
            if series is None:
                continue
            finite = series[np.isfinite(series)]
            if finite.size == 0:
                continue
            comp_total = float(finite.sum())
            share = 100.0 * comp_total / lat_total if lat_total else 0.0
            lines.append(
                f"   · {name:<15} {_spark(np.nan_to_num(series))}  "
                f"mean={finite.mean() * 1e3:.2f}ms share={share:.1f}%"
            )
    for side in sorted(report.li):
        li = report.li[side]
        finite = li[np.isfinite(li)]
        if finite.size:
            lines.append(
                f"  LI[{side}]       {_spark(np.nan_to_num(li, nan=1.0))}  "
                f"median={np.median(finite):.2f} max={finite.max():.2f}"
            )

    for side in sorted(report.envelope):
        env = report.envelope[side]
        loads = env["loads"]
        if loads.size == 0:
            continue
        lines.append("")
        lines.append(
            f"per-instance load envelope [{side}] "
            f"({loads.shape[1]} instances, {loads.shape[0]} samples, Fig. 1c)"
        )
        lines.append(f"  heaviest    {_spark(loads.max(axis=1))}")
        lines.append(f"  median      {_spark(np.median(loads, axis=1))}")
        lines.append(f"  lightest    {_spark(loads.min(axis=1))}")
        final = loads[-1]
        spread = final.max() / max(final.min(), 1.0)
        lines.append(f"  final spread (max/min): {spread:.2f}")

    lines.append("")
    n_complete = len(report.complete_spans)
    lines.append(
        f"migration spans: {len(report.spans)} total, "
        f"{n_complete} complete (Fig. 11)"
    )
    for span in report.spans:
        lines.extend(_waterfall(span))

    if report.hot_keys:
        lines.append("")
        lines.append(f"hot keys (top {top}, from dispatch-event summaries)")
        for stream, ranked in report.hot_keys.items():
            head = ", ".join(f"{k}:{c}" for k, c in ranked[:top])
            lines.append(f"  {stream}: {head}")

    if report.guard_violations:
        lines.append("")
        lines.append(f"guard violations: {len(report.guard_violations)}")
        for e in report.guard_violations:
            lines.append(
                f"  t={e['ts']:.3f} [{e.get('invariant')}] {e.get('message')}"
            )
    return "\n".join(lines)

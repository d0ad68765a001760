"""A unified metrics registry: Counter / Gauge / Histogram with labels.

The registry is the *aggregate* signal of the observability layer (the
event bus is the trace-level one): every publisher —
:class:`~repro.engine.metrics.MetricsCollector`, the
:class:`~repro.join.dispatcher.Dispatcher`, the monitors on behalf of each
:class:`~repro.join.instance.JoinInstance` — writes into one shared
namespace, and the whole system state exports as JSON or Prometheus-style
text in one call.

The model follows the Prometheus client-library conventions (family →
labelled children), scaled down to what a single-process simulator needs:
no threads, no registries-of-registries, histograms with fixed upper
bounds.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: default histogram buckets, tuned for simulated latencies in seconds
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(label_names: tuple[str, ...], labels: dict) -> tuple[str, ...]:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {label_names}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Family:
    """Shared machinery: a named family of labelled children."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", label_names: tuple[str, ...] = ()
    ) -> None:
        self.name = _validate_name(name)
        self.help = help
        self.label_names = tuple(label_names)
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labels):
        """The child for one label combination (created on first use)."""
        key = _label_key(self.label_names, labels)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _default_child(self):
        """The unlabelled child (only valid for label-less families)."""
        if self.label_names:
            raise ValueError(
                f"metric {self.name} has labels {self.label_names}; "
                "use .labels(...)"
            )
        return self.labels()

    def samples(self) -> list[tuple[dict, object]]:
        """``(labels, child)`` pairs for export."""
        return [
            (dict(zip(self.label_names, key)), child)
            for key, child in sorted(self._children.items())
        ]


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class Counter(_Family):
    """A monotonically increasing value (e.g. total results emitted)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Family):
    """A value that can go up and down (e.g. an instance's backlog)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    @property
    def value(self) -> float:
        return self._default_child().value


class _HistogramChild:
    __slots__ = ("bounds", "_bounds_arr", "bucket_counts", "count", "sum")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self._bounds_arr = np.asarray(bounds, dtype=np.float64)
        self.bucket_counts = [0] * (len(bounds) + 1)  # +Inf bucket last
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def observe_many(self, values) -> None:
        """Bulk observation: one searchsorted + bincount for the whole
        array (``searchsorted(side="left")`` matches ``bisect_left``
        bucket-for-bucket), instead of a Python loop per value — the
        hot-path hooks feed whole per-tick latency arrays through here.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        n = arr.shape[0]
        if n == 0:
            return
        if n < 8:
            for v in arr.tolist():
                self.observe(v)
            return
        idx = self._bounds_arr.searchsorted(arr, side="left")
        per_bucket = np.bincount(idx, minlength=len(self.bucket_counts))
        counts = self.bucket_counts
        for i, c in enumerate(per_bucket.tolist()):
            if c:
                counts[i] += c
        self.count += n
        self.sum += float(arr.sum())

    def observe_zeros(self, n: int) -> None:
        """``n`` observations of 0.0 in O(1): what :meth:`observe_many`
        does for an all-zero vector, without the vector."""
        if n:
            self.bucket_counts[bisect_left(self.bounds, 0.0)] += n
            self.count += n

    def cumulative(self) -> list[int]:
        out, running = [], 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out


class Histogram(_Family):
    """Bucketed distribution of observations (e.g. tuple latency)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("histogram buckets must be finite")
        self.buckets = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def observe_many(self, values) -> None:
        self._default_child().observe_many(values)


class MetricsRegistry:
    """One namespace of metric families, with JSON + Prometheus export."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is not None:
            if type(existing) is not type(family) or (
                existing.label_names != family.label_names
            ):
                raise ValueError(
                    f"metric {family.name!r} already registered with a "
                    "different type or label set"
                )
            return existing
        self._families[family.name] = family
        return family

    def counter(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Counter:
        return self._register(Counter(name, help, labels))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: tuple[str, ...] = ()) -> Gauge:
        return self._register(Gauge(name, help, labels))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, labels, buckets))  # type: ignore[return-value]

    def families(self) -> list[_Family]:
        return [self._families[name] for name in sorted(self._families)]

    # -- export --------------------------------------------------------- #

    def to_json(self) -> dict:
        """Nested-dict form, stable key order, JSON-serialisable."""
        out: dict = {}
        for family in self.families():
            entries = []
            for labels, child in family.samples():
                if family.kind == "histogram":
                    entries.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": {
                            str(b): c for b, c in zip(
                                [*family.buckets, "+Inf"], child.cumulative()
                            )
                        },
                    })
                else:
                    entries.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": entries,
            }
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, child in family.samples():
                if family.kind == "histogram":
                    cumulative = child.cumulative()
                    for bound, c in zip([*family.buckets, "+Inf"], cumulative):
                        le = dict(labels)
                        le["le"] = bound if bound == "+Inf" else repr(bound)
                        lines.append(
                            f"{family.name}_bucket{_fmt_labels(le)} {c}"
                        )
                    lines.append(
                        f"{family.name}_sum{_fmt_labels(labels)} {child.sum}"
                    )
                    lines.append(
                        f"{family.name}_count{_fmt_labels(labels)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_fmt_labels(labels)} {child.value}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label escaping: backslash first, then the
    double quote and newline (exposition format 0.0.4, "label_value can be
    any sequence of UTF-8 characters, but the backslash, double-quote and
    line-feed characters have to be escaped")."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"

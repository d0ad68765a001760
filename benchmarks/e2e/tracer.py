"""Outside-in span tracer for the benchmark's per-layer metrics.

The tracer replaces selected public methods of the program's classes with
timing wrappers *before* the system under test is built (``JoinInstance``
binds ``store.match_counts`` at construction, so a later patch would miss
it).  Every wrapped call becomes a span ``(id, parent, name, start, end)``.
Spans opened while one tick of ``StreamJoinRuntime.step`` is current share
that tick's index as their request id, so one tick's spans form a tree.

Totals are aggregated online per span name: calls, busy time (the span's
duration) and self time (duration minus the part its child spans cover).
A wrapped method re-entered under a span of the same name (a windowed
store delegating to its inner keyed store) is not traced again, so busy
time never double-counts.  Garbage collection pauses, observed through
``gc.callbacks``, become ``python.gc`` child spans of whatever was running.

Raw spans are kept only for the first ``keep_first`` measured ticks and
for the ``keep_slowest`` slowest ones; everything else is folded into the
totals and dropped.  Forked shard workers inherit the wrappers; they stop
recording at the fork, and the parent's ``engine.shard.*`` spans cover
their time.
"""

from __future__ import annotations

import functools
import gc
import heapq
import json
import os
import time

__all__ = ["Tracer", "REQUEST_SPAN", "layer_targets", "span_metrics"]

#: the span whose calls delimit one request (one simulation tick)
REQUEST_SPAN = "engine.runtime.step"
_ROOT = "<root>"
_GC = "python.gc"


class Tracer:
    """Patches methods into spans and aggregates their times."""

    def __init__(
        self, keep_first: int = 200, keep_slowest: int = 100,
        clock=time.perf_counter,
    ) -> None:
        self.clock = clock
        self.keep_first = keep_first
        self.keep_slowest = keep_slowest
        #: [name, start, child_time, span_id, excluded_time] frames of the
        #: open spans
        self._root = [_ROOT, 0.0, 0.0, 0, 0.0]
        self.stack = [self._root]
        #: span name -> [calls, busy_s, self_s]; lists are mutated in place
        #: because the wrappers hold references to them
        self.stats: dict[str, list] = {_GC: [0, 0.0, 0.0]}
        #: counters fed by the wrappers' result hooks
        self.counts: dict[str, float] = {}
        self.enabled = False
        self.measuring = False
        self.request = -1
        self._next_id = 0
        self._buf: list[tuple] = []
        self._req_dur = 0.0
        self._n_measured = 0
        self._first: list[tuple] = []
        self._slowest: list[tuple] = []
        self._patches: list[tuple] = []
        os.register_at_fork(after_in_child=self._forked)

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #

    def install(self, targets) -> None:
        """Wrap every ``(cls, attr, name, on_result, counted)`` target."""
        for cls, attr, name, on_result, counted in targets:
            own = cls.__dict__.get(attr)
            fn = getattr(cls, attr)
            setattr(cls, attr, self.wrap(name, fn, on_result, counted))
            self._patches.append((cls, attr, own))
        gc.callbacks.append(self._on_gc)
        self.enabled = True

    def track_arenas(self) -> list:
        """Record every ``Arena`` built from now on (for its ``grows``)."""
        from repro.engine.arena import Arena

        arenas: list = []
        init = Arena.__init__

        def tracked(arena, *args, **kwargs):
            init(arena, *args, **kwargs)
            arenas.append(arena)

        self._patches.append((Arena, "__init__", Arena.__dict__.get("__init__")))
        Arena.__init__ = tracked
        return arenas

    def uninstall(self) -> None:
        """Restore every patched method and stop observing the collector."""
        self.enabled = False
        for cls, attr, own in reversed(self._patches):
            if own is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, own)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _forked(self) -> None:
        self.enabled = False

    def wrap(self, name, fn, on_result=None, counted=True):
        """Return ``fn`` wrapped into spans called ``name``."""
        tr = self
        clock = self.clock
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        opens_request = name == REQUEST_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tr.stack
            top = stack[-1]
            if not tr.enabled or top[0] == name:
                return fn(*args, **kwargs)
            if opens_request:
                tr._open_request()
            tr._next_id += 1
            frame = [name, 0.0, 0.0, tr._next_id, 0.0]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                del stack[-1]
                dur = end - start - frame[4]
                top[2] += dur
                if counted:
                    stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[2]
                tr._buf.append((frame[3], top[3], name, start, end))
                if opens_request:
                    tr._req_dur = dur
            if on_result is not None:
                on_result(tr.counts, args, result)
            return result

        return traced

    def exclude(self, seconds: float) -> None:
        """Leave out of every open span time the program did not spend
        (the benchmark's own speed probe, run from inside a span)."""
        for frame in self.stack[1:]:
            frame[4] += seconds

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self._next_id += 1
            self.stack.append([_GC, self.clock(), 0.0, self._next_id, 0.0])
            return
        frame = self.stack[-1]
        if frame[0] != _GC:
            return
        end = self.clock()
        del self.stack[-1]
        dur = end - frame[1]
        self.stack[-1][2] += dur
        stat = self.stats[_GC]
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur
        self._buf.append((frame[3], self.stack[-1][3], _GC, frame[1], end))

    # ------------------------------------------------------------------ #
    # requests and the measured window
    # ------------------------------------------------------------------ #

    def _open_request(self) -> None:
        self._close_request()
        self.request += 1

    def _close_request(self) -> None:
        buf = self._buf
        self._buf = []
        if not buf or not self.measuring or self.request < 0:
            return
        entry = (self._req_dur, self.request, buf)
        if self._n_measured < self.keep_first:
            self._first.append(entry)
        if len(self._slowest) < self.keep_slowest:
            heapq.heappush(self._slowest, entry)
        elif entry[0] > self._slowest[0][0]:
            heapq.heapreplace(self._slowest, entry)
        self._n_measured += 1

    def start_window(self) -> None:
        """Zero every total: what follows is the measured window."""
        self._buf = []
        for stat in self.stats.values():
            stat[0] = 0
            stat[1] = 0.0
            stat[2] = 0.0
        self.counts.clear()
        self._root[2] = 0.0
        self._first.clear()
        self._slowest.clear()
        self._n_measured = 0
        self.measuring = True

    def stop_window(self) -> None:
        self._close_request()
        self.measuring = False

    @property
    def covered_s(self) -> float:
        """Wall time covered by top-level spans (= the sum of self times)."""
        return self._root[2]

    def kept_requests(self) -> list[tuple]:
        """``(duration, request, spans)`` of every kept tick, in order."""
        seen = {}
        for entry in self._first + self._slowest:
            seen[entry[1]] = entry
        return [seen[r] for r in sorted(seen)]

    def write_spans(self, path: str, **labels) -> int:
        """Append the kept ticks' spans as JSON lines; return the count."""
        n = 0
        with open(path, "a", encoding="utf-8") as fh:
            for dur, request, spans in self.kept_requests():
                for span_id, parent, name, start, end in spans:
                    fh.write(json.dumps({
                        **labels, "request": request, "tick_s": dur,
                        "span": span_id, "parent": parent, "name": name,
                        "start": start, "end": end,
                    }) + "\n")
                    n += 1
        return n


# ---------------------------------------------------------------------- #
# the layer model: which public methods are spans, and what they count
# ---------------------------------------------------------------------- #

def _add(counts: dict, key: str, n) -> None:
    counts[key] = counts.get(key, 0) + n


def _emit(c, args, result):
    _add(c, "data.streams.emit.tuples", result.shape[0])


def _dispatch(c, args, result):
    _add(c, "join.dispatcher.dispatch.tuples", args[2].shape[0])


def _peek(c, args, result):
    _add(c, "engine.queues.peeked", len(result))


def _consume(c, args, result):
    _add(c, "engine.queues.consumed", args[1])


def _match(c, args, result):
    _add(c, "join.storage.match_counts.tuples", args[1].shape[0])


def _add_batch(c, args, result):
    _add(c, "join.storage.add.tuples", args[1].shape[0])


def _add_weighted(c, args, result):
    _add(c, "join.storage.add.tuples", args[3])


def _instance_step(c, args, result):
    if not result.idle:
        _add(c, "join.instance.step.active", 1)
        _add(c, "join.instance.work_units", result.work_units)


def _select(c, args, result):
    _add(c, "core.selection.keys_considered", args[1].n_keys)
    _add(c, "core.selection.keys_selected", result.n_keys)


def _execute(c, args, result):
    if result is not None:
        _add(c, "core.migration.execute.useful", 1)
        _add(c, "core.migration.tuples_moved", result.n_tuples)


def _checkpoint(c, args, result):
    _add(c, "faults.checkpoint.snapshot_keys", len(args[0].counts))


def layer_targets() -> list[tuple]:
    """The spans: ``(class, method, span name, result hook, counted)``.

    Span names are ``<module>.<function>`` with the ``repro.`` prefix
    dropped; methods that do one job under two names (``add_batch`` and
    ``add_weighted``) share one span name.
    """
    from repro.core.migration import MigrationExecutor
    from repro.core.monitor import Monitor
    from repro.core.selection import GreedyFit, SAFit
    from repro.data.streams import StreamSource
    from repro.elastic.controller import ElasticController
    from repro.engine.metrics import MetricsCollector
    from repro.engine.queues import TupleQueue
    from repro.engine.runtime import StreamJoinRuntime
    from repro.faults.checkpoint import InstanceCheckpointer
    from repro.faults.injector import FaultInjector
    from repro.join.dispatcher import Dispatcher
    from repro.join.exact import ExactBiclique
    from repro.join.instance import JoinInstance
    from repro.join.storage import KeyedStore
    from repro.join.window import WindowedStore
    from repro.validate.invariants import InvariantGuards

    targets = [
        (StreamJoinRuntime, "step", "engine.runtime.step", None, True),
        (StreamSource, "emit", "data.streams.emit", _emit, True),
        (Dispatcher, "dispatch", "join.dispatcher.dispatch", _dispatch, True),
        (TupleQueue, "push_block", "engine.queues.push_block", None, True),
        (TupleQueue, "peek_visible", "engine.queues.peek_visible", _peek, True),
        (TupleQueue, "consume", "engine.queues.consume", _consume, True),
        (JoinInstance, "step", "join.instance.step", _instance_step, True),
        (MetricsCollector, "record_service_many",
         "engine.metrics.record_service_many", None, True),
        (Monitor, "tick", "core.monitor.tick", None, True),
        (GreedyFit, "select", "core.selection.select", _select, True),
        (SAFit, "select", "core.selection.select", _select, True),
        (MigrationExecutor, "execute", "core.migration.execute", _execute, True),
        (WindowedStore, "rotate", "join.window.rotate", None, True),
        (ElasticController, "tick", "elastic.controller.tick", None, True),
        (FaultInjector, "before_tick", "faults.injector.before_tick", None, True),
        (InstanceCheckpointer, "checkpoint", "faults.checkpoint.checkpoint",
         _checkpoint, True),
        (InstanceCheckpointer, "record_stores",
         "faults.checkpoint.record_stores", None, True),
        (InstanceCheckpointer, "recover_restart", "faults.checkpoint.recover",
         None, True),
        (InstanceCheckpointer, "recover_empty", "faults.checkpoint.recover",
         None, True),
        (ExactBiclique, "ingest", "join.exact.ingest", None, True),
        (ExactBiclique, "step", "join.exact.step", None, True),
        (ExactBiclique, "drain", "join.exact.drain", None, True),
        (ExactBiclique, "check_exactly_once", "join.exact.check_exactly_once",
         None, True),
        (InvariantGuards, "after_tick", "validate.invariants.after_tick",
         None, True),
    ]
    for store in (KeyedStore, WindowedStore):
        targets += [
            (store, "match_counts", "join.storage.match_counts", _match, True),
            (store, "add_batch", "join.storage.add", _add_batch, True),
            (store, "add_weighted", "join.storage.add", _add_weighted, True),
            (store, "remove_keys", "join.storage.migrate", None, True),
            (store, "merge_counts", "join.storage.migrate", None, True),
            (store, "counts_snapshot", "join.storage.counts_snapshot", None,
             True),
        ]
    try:
        from repro.engine.shard import ShardCoordinator
    except ImportError:
        return targets
    targets += [
        (ShardCoordinator, "service_tick", "engine.shard.service_tick", None,
         True),
        (ShardCoordinator, "pull", "engine.shard.barrier", None, True),
        (ShardCoordinator, "pull_all", "engine.shard.barrier", None, True),
        (ShardCoordinator, "push_all", "engine.shard.barrier", None, True),
        (ShardCoordinator, "rotate_all", "engine.shard.barrier", None, True),
        # Runs every tick and is a no-op unless a migration pulled state:
        # its time counts as barrier time, its calls do not.
        (ShardCoordinator, "flush_dirty", "engine.shard.barrier", None, False),
    ]
    return targets


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from the tracer's totals (absent layers read 0)."""
    # Serial runs never call the shard layer, a program without it has no
    # targets for it, and only oracle-check opens differential-run spans:
    # report zeros rather than leave the names out.
    for name in ("engine.shard.service_tick", "engine.shard.barrier",
                 "validate.differential.run"):
        tracer.stats.setdefault(name, [0, 0.0, 0.0])
    out: dict[str, float] = {}
    for name, (calls, busy, self_s) in tracer.stats.items():
        out[f"{name}.calls"] = float(calls)
        out[f"{name}.busy_s"] = busy
        out[f"{name}.self_s"] = self_s
    c = tracer.counts
    for key in (
        "data.streams.emit.tuples", "join.dispatcher.dispatch.tuples",
        "join.storage.match_counts.tuples", "join.storage.add.tuples",
        "core.selection.keys_considered", "core.selection.keys_selected",
        "core.migration.tuples_moved", "faults.checkpoint.snapshot_keys",
    ):
        out[key] = float(c.get(key, 0))
    step_calls = out["join.instance.step.calls"]
    out["engine.queues.take_ratio"] = _ratio(
        c.get("engine.queues.consumed", 0), c.get("engine.queues.peeked", 0)
    )
    out["join.instance.step.active_ratio"] = _ratio(
        c.get("join.instance.step.active", 0), step_calls
    )
    out["join.instance.s_per_work_unit"] = _ratio(
        out["join.instance.step.busy_s"], c.get("join.instance.work_units", 0)
    )
    out["core.migration.execute.useful_ratio"] = _ratio(
        c.get("core.migration.execute.useful", 0),
        out["core.migration.execute.calls"],
    )
    return out

"""Spans and kernel accumulators recorded from outside the program.

The harness wraps public callables of ``repro`` (methods on their class,
module-level functions in every namespace that imported them) and records

* a **span** per call of a layer boundary: ``(id, name, start, end, parent,
  ident, thread)``, kept in memory and written as JSONL when the run ends;
* a **kernel accumulator** for callables invoked thousands of times a
  second: ``(calls, busy time, rows)`` per enclosing span, no span per call.

A span's name is ``"<layer>:<callable>"`` where the layer is the module path
under ``src/repro/`` (``service.sharded:fanout``).  A span started on a
thread with no open span (a fan-out worker, the coalescer's flusher) takes
as parent the innermost open *hand-off* span: in the closed-loop phases one
batch is in flight at a time, so that span is unique.

Self time is duration minus the union of child intervals.  Children that ran
in parallel on other threads are weighted by ``union / sum`` of their
durations, so per-layer self times add up to the wall time of the root spans
(each layer's share of the *blocking* path) instead of double-counting the
two shard workers.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_time(start: float, stop: float, children: Iterable[Tuple[float, float]]) -> float:
    """Duration of ``[start, stop]`` not covered by any child interval."""
    clipped = [
        (max(a, start), min(b, stop)) for a, b in children if b > start and a < stop
    ]
    return (stop - start) - union_length(clipped)


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


class _ThreadBag:
    """Per-thread state: the open-frame stack and the thread's accumulators."""

    __slots__ = ("frames", "kernels", "counts")

    def __init__(self) -> None:
        # Frames are [span_id, is_kernel, layer, child_seconds].
        self.frames: List[list] = []
        # (span_id, kernel name) -> [calls, direct_s, self_s, rows, entries, entry_s]
        self.kernels: Dict[Tuple[Optional[int], str], list] = {}
        self.counts: Dict[str, float] = defaultdict(float)


class Tracer:
    """Collects spans, kernel accumulators and counts taken from results."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[tuple] = []
        self.request_ids: Dict[int, int] = {}
        self._ids = itertools.count()
        self._handoff: List[int] = []
        self._local = threading.local()
        self._bags: List[_ThreadBag] = []
        self._bags_lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def _bag(self) -> _ThreadBag:
        bag = getattr(self._local, "bag", None)
        if bag is None:
            bag = self._local.bag = _ThreadBag()
            with self._bags_lock:
                self._bags.append(bag)
        return bag

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a named count (taken from a wrapped call's result)."""
        self._bag().counts[name] += amount

    def open(self, name: str, ident: Any = None, handoff: bool = False) -> tuple:
        """Start a span on this thread; pass the token to :meth:`close`."""
        bag = self._bag()
        frames = bag.frames
        if frames:
            parent = frames[-1][0]
        else:
            parent = self._handoff[-1] if self._handoff else None
        span_id = next(self._ids)
        frames.append([span_id, False, layer_of(name), 0.0])
        if handoff:
            self._handoff.append(span_id)
        return (span_id, name, parent, ident, handoff, self.clock())

    def close(self, token: tuple) -> int:
        stop = self.clock()
        span_id, name, parent, ident, handoff, start = token
        if handoff:
            self._handoff.remove(span_id)
        self._bag().frames.pop()
        self.spans.append(
            (span_id, name, start, stop, parent, ident, threading.get_ident())
        )
        return span_id

    def span(self, name: str, ident: Any = None, handoff: bool = False) -> "_SpanContext":
        return _SpanContext(self, name, ident, handoff)

    # -- wrappers ------------------------------------------------------
    def wrap_span(
        self,
        fn: Callable,
        name: str,
        ident: Optional[Callable[[tuple, dict], Any]] = None,
        on_result: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        handoff: bool = False,
        adapt: Optional[Callable[["Tracer", tuple], tuple]] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if adapt is not None:
                args = adapt(tracer, args)
            token = tracer.open(
                name, None if ident is None else ident(args, kwargs), handoff
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(token)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        traced.__wrapped_by_perf__ = fn
        return traced

    def wrap_kernel(
        self,
        fn: Callable,
        name: str,
        rows: Optional[Callable[[tuple], int]] = None,
    ) -> Callable:
        """A wrapper accumulating ``(calls, busy, rows)`` per enclosing span."""
        tracer = self
        layer = layer_of(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bag = tracer._bag()
            frames = bag.frames
            if frames:
                outer = frames[-1]
                span_id = outer[0]
            else:
                outer = None
                span_id = tracer._handoff[-1] if tracer._handoff else None
            frame = [span_id, True, layer, 0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                record = bag.kernels.get((span_id, name))
                if record is None:
                    record = bag.kernels[(span_id, name)] = [0, 0.0, 0.0, 0, 0, 0.0]
                record[0] += 1
                record[2] += elapsed - frame[3]
                if rows is not None:
                    record[3] += rows(args)
                if outer is None or not outer[1]:
                    record[1] += elapsed
                else:
                    outer[3] += elapsed
                if outer is None or outer[2] != layer:
                    record[4] += 1
                    record[5] += elapsed

        traced.__wrapped_by_perf__ = fn
        return traced

    # -- analysis ------------------------------------------------------
    def merged_kernels(self) -> Dict[Tuple[Optional[int], str], list]:
        merged: Dict[Tuple[Optional[int], str], list] = {}
        for bag in self._bags:
            for key, record in bag.kernels.items():
                into = merged.setdefault(key, [0, 0.0, 0.0, 0, 0, 0.0])
                for index, value in enumerate(record):
                    into[index] += value
        return merged

    def merged_counts(self) -> Dict[str, float]:
        merged: Dict[str, float] = defaultdict(float)
        for bag in self._bags:
            for name, value in bag.counts.items():
                merged[name] += value
        return merged

    def analyze(self) -> "TraceReport":
        return TraceReport(self.spans, self.merged_kernels(), self.merged_counts())


class _SpanContext:
    __slots__ = ("tracer", "name", "ident", "handoff", "token")

    def __init__(self, tracer: Tracer, name: str, ident: Any, handoff: bool) -> None:
        self.tracer, self.name, self.ident, self.handoff = tracer, name, ident, handoff

    def __enter__(self) -> "_SpanContext":
        self.token = self.tracer.open(self.name, self.ident, self.handoff)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.token)


class TraceReport:
    """Self times, blocking-path weights and per-layer sums of one trace."""

    def __init__(
        self,
        spans: Sequence[tuple],
        kernels: Dict[Tuple[Optional[int], str], list],
        counts: Dict[str, float],
    ) -> None:
        self.spans = {span[0]: span for span in spans}
        self._by_name: Dict[str, List[tuple]] = defaultdict(list)
        for span in spans:
            self._by_name[span[1]].append(span)
        self.kernels = kernels
        self.counts = counts
        children: Dict[Optional[int], List[int]] = defaultdict(list)
        for span_id, _name, _start, _stop, parent, _ident, _thread in spans:
            children[parent if parent in self.spans else None].append(span_id)
        self.children = children
        kernel_direct: Dict[Optional[int], float] = defaultdict(float)
        for (span_id, _name), record in kernels.items():
            kernel_direct[span_id] += record[1]
        self.self_s: Dict[int, float] = {}
        self.weight: Dict[int, float] = {}
        # Parents precede children in (start, id) order, so one pass assigns
        # weights top-down.
        for span_id in sorted(self.spans, key=lambda i: (self.spans[i][2], i)):
            _id, _name, start, stop, parent, _ident, thread = self.spans[span_id]
            kids = [self.spans[k] for k in children.get(span_id, ())]
            self.self_s[span_id] = max(
                0.0,
                self_time(start, stop, [(k[2], k[3]) for k in kids])
                - kernel_direct.get(span_id, 0.0),
            )
            if parent not in self.spans:
                self.weight[span_id] = 1.0
            elif span_id not in self.weight:
                self.weight[span_id] = self.weight[parent]
            remote = [k for k in kids if k[6] != thread]
            if remote:
                total = sum(k[3] - k[2] for k in remote)
                covered = union_length((k[2], k[3]) for k in remote)
                scale = covered / total if total > 0.0 else 1.0
                for k in remote:
                    self.weight[k[0]] = self.weight[span_id] * scale

    # -- queries -------------------------------------------------------
    def named(self, *names: str) -> List[tuple]:
        return [span for name in names for span in self._by_name.get(name, ())]

    def durations_ms(self, *names: str) -> List[float]:
        return [(span[3] - span[2]) * 1e3 for span in self.named(*names)]

    def busy_s(self, *names: str) -> float:
        """Blocking-path-weighted inclusive time of the named spans."""
        return sum(
            (span[3] - span[2]) * self.weight[span[0]] for span in self.named(*names)
        )

    def span_self_s(self, *names: str) -> float:
        return sum(
            self.self_s[span[0]] * self.weight[span[0]] for span in self.named(*names)
        )

    def kernel(self, name: str) -> Dict[str, float]:
        """Weighted totals of one kernel accumulator across all its spans."""
        out = {"calls": 0.0, "self_s": 0.0, "rows": 0.0, "entries": 0.0, "entry_s": 0.0}
        for (span_id, kernel_name), record in self.kernels.items():
            if kernel_name != name:
                continue
            weight = self.weight.get(span_id, 1.0)
            out["calls"] += record[0]
            out["self_s"] += record[2] * weight
            out["rows"] += record[3]
            out["entries"] += record[4]
            out["entry_s"] += record[5] * weight
        return out

    def kernel_names(self) -> List[str]:
        return sorted({name for _span, name in self.kernels})

    def layer_self_s(self) -> Dict[str, float]:
        """Weighted self time per layer; sums to the root spans' wall time."""
        layers: Dict[str, float] = defaultdict(float)
        for span_id, span in self.spans.items():
            layers[layer_of(span[1])] += self.self_s[span_id] * self.weight[span_id]
        for (span_id, name), record in self.kernels.items():
            layers[layer_of(name)] += record[2] * self.weight.get(span_id, 1.0)
        return dict(layers)

    def layer_entry_s(self, layer: str) -> float:
        """Weighted time inside a layer's kernels, entered from outside it."""
        return sum(
            record[5] * self.weight.get(span_id, 1.0)
            for (span_id, name), record in self.kernels.items()
            if layer_of(name) == layer
        )

    def root_wall_s(self) -> float:
        return sum(
            span[3] - span[2]
            for span in self.spans.values()
            if span[4] not in self.spans
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id in sorted(self.spans):
                _id, name, start, stop, parent, ident, thread = self.spans[span_id]
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": stop,
                            "parent": parent,
                            "ident": ident,
                            "thread": thread,
                            "self_ms": self.self_s[span_id] * 1e3,
                            "weight": self.weight[span_id],
                        }
                    )
                    + "\n"
                )
            for (span_id, name), record in sorted(
                self.kernels.items(), key=lambda item: (item[0][0] or -1, item[0][1])
            ):
                out.write(
                    json.dumps(
                        {
                            "kernel": name,
                            "span": span_id,
                            "calls": record[0],
                            "busy_ms": record[1] * 1e3,
                            "self_ms": record[2] * 1e3,
                            "rows": record[3],
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Installing and removing wrappers
# ----------------------------------------------------------------------
class Patcher:
    """Installs wrappers and puts every original back on :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def patch_attr(self, owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (a method on a class) by ``wrap(original)``."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(wrap(raw.__func__))
        else:
            wrapped = wrap(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def patch_function(self, module: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function in every ``repro`` namespace that
        imported it (``from x import f`` binds a second name to ``f``)."""
        original = getattr(module, attr)
        wrapped = wrap(original)
        for name, candidate in list(sys.modules.items()):
            if candidate is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(candidate).items()):
                if value is original:
                    self._undo.append((candidate, key, original))
                    setattr(candidate, key, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._undo)

"""In-memory span recording for the traced run.

Spans are recorded around calls into each layer's public functions by
patching those attributes from here, for the duration of a traced run
only; the program's own files are untouched.  A span has a name, its
layer, start and end (``perf_counter`` seconds), the span that caused it
(per-thread nesting) and the id of the screen, request or round it
belongs to.  Spans stay in memory and are written as JSONL at the end.
"""

from __future__ import annotations

import functools
import json
import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from harness import clock


_INHERITED = object()


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "op", "thread")

    def __init__(self, sid, name, layer, start, parent, op, thread):
        self.id = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "layer": self.layer,
            "start": self.start, "end": self.end, "parent": self.parent,
            "op": self.op, "thread": self.thread,
        }


class SpanRecorder:
    """Collects spans; patches layer entry points while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: str = ""
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._undo: List[Tuple[object, str, object]] = []
        # The open engine job: spans that start on a thread with nothing
        # open (engine task threads) become its children.
        self._job: Optional[Span] = None

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, op: Optional[str] = None):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            parent = self._job.id if self._job is not None else None
        sp = Span(next(self._ids), name, layer, clock(), parent,
                  self.op if op is None else op, threading.get_ident())
        stack.append(sp)
        is_job = name == "engine.run_job"
        if is_job:
            outer, self._job = self._job, sp
        try:
            yield sp
        finally:
            sp.end = clock()
            stack.pop()
            if is_job:
                self._job = outer
            self.spans.append(sp)

    def wrap(self, owner: object, attr: str, name: str, layer: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until :meth:`uninstall`."""
        own = owner.__dict__ if isinstance(owner, type) else vars(owner)
        original = getattr(owner, attr)
        if isinstance(own.get(attr), (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap descriptor {name}")
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with recorder.span(name, layer):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, own.get(attr, _INHERITED)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer.

        A span's self time is its duration minus the union of the
        intervals its direct children cover.
        """
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        totals: Dict[str, float] = {}
        for s in self.spans:
            covered = union_length(
                [(c.start, c.end) for c in children.get(s.id, ())], s.start, s.end
            )
            totals[s.layer] = totals.get(s.layer, 0.0) + max(0.0, s.dur - covered)
        return totals

    def dump_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(s.to_dict()) + "\n")


def union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def covered_length(spans: List[Span], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by any of *spans*."""
    return union_length([(s.start, s.end) for s in spans], lo, hi)


"""Span recording for the traced server and self-time arithmetic.

:class:`Recorder` lives in the traced server process
(``traced_serve.py``).  It wraps a layer's public function so that every
call appends one span — ``id``, ``parent``, ``name``, ``start_ns``,
``end_ns``, ``rid`` (request id) and ``attrs`` — to an in-memory list,
written out as JSON lines when the server exits.  The parent is the
innermost span open on the calling thread; work handed to a pool thread
is re-parented explicitly with :meth:`Recorder.bind`.

The analysis side needs one operation: a span's self time is its
duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

Attrs = Callable[[tuple, dict, object, Optional[BaseException]], dict]


class Recorder:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- per-thread context ---------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def rid(self) -> Optional[str]:
        return getattr(self._local, "rid", None)

    def set_connection(self, port: int) -> None:
        """Start a connection: later top-level requests number from 1."""
        self._local.conn = port
        self._local.seq = 0
        self._local.rid = None

    def event(self, name: str, **attrs) -> None:
        now = time.perf_counter_ns()
        self._append(next(self._ids), None, name, now, now, self.rid, attrs)

    def _append(self, sid, parent, name, start, end, rid, attrs) -> None:
        # list.append is atomic under the GIL; no lock needed.
        self.spans.append(
            {"id": sid, "parent": parent, "name": name, "start_ns": start,
             "end_ns": end, "rid": rid, "attrs": attrs}
        )

    # -- wrapping -------------------------------------------------------
    def wrap(self, name: str, fn: Callable, attrs: Optional[Attrs] = None,
             top: bool = False) -> Callable:
        """``fn`` timed as span ``name``.

        ``top=True`` marks a request entry point: when no span is open on
        the thread, the call opens the next request of the thread's
        connection and its subtree carries that request id.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            opens_request = top and not stack
            if opens_request:
                self._local.seq = getattr(self._local, "seq", 0) + 1
                self._local.rid = f"{getattr(self._local, 'conn', 0)}:{self._local.seq}"
            rid = self.rid
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            result, error = None, None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if opens_request:
                    self._local.rid = None
                extra = attrs(args, kwargs, result, error) if attrs else {}
                if error is not None:
                    extra["error"] = type(error).__name__
                self._append(sid, parent, name, start, end, rid, extra)

        return wrapper

    def bind(self, name: str, fn: Callable) -> Callable:
        """``fn`` as a span whose parent is the span open *now*, on any thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        rid = self.rid
        local = self._local
        timed = self.wrap(name, fn)

        @functools.wraps(fn)
        def bound(*args, **kwargs):
            saved = (getattr(local, "stack", None), getattr(local, "rid", None))
            local.stack = [parent] if parent is not None else []
            local.rid = rid
            try:
                return timed(*args, **kwargs)
            finally:
                local.stack, local.rid = saved

        return bound

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in list(self.spans):
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def load(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def duration_ns(span: dict) -> int:
    return span["end_ns"] - span["start_ns"]


def covered_ns(span: dict, children: Iterable[dict]) -> int:
    """Length of the union of the children's intervals inside ``span``."""
    lo, hi = span["start_ns"], span["end_ns"]
    intervals = sorted(
        (max(c["start_ns"], lo), min(c["end_ns"], hi)) for c in children
    )
    total, cur_start, cur_end = 0, None, None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_ns(span: dict, children: Iterable[dict]) -> int:
    return duration_ns(span) - covered_ns(span, children)


def children_index(spans: Sequence[dict]) -> Dict[int, List[dict]]:
    index: Dict[int, List[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            index.setdefault(span["parent"], []).append(span)
    return index


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile (``q`` in [0, 1]); ``inf`` sorts last."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if ordered[lo] == ordered[hi]:
        return ordered[lo]
    if math.isinf(ordered[hi]):
        return math.inf
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


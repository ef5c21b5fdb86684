"""Wall-clock spans recorded by wrappers around public functions.

The traced run installs a :class:`SpanRecorder` wrapper on each public
function that starts a layer (``FleetService.read_chunk``,
``FlashMemory.write`` ...).  Every call records ``(id, parent, name,
start, end)``; the parent is whichever wrapped call was running in the
same context when it started.  A context variable carries the current
span, so interleaved asyncio tasks nest independently and work handed
to a thread pool under a copied context (the serve plane's signer pool
does this) lands under the span that submitted it.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from typing import Dict, List, Optional, Tuple

#: (span id, parent id or None, name, start, end)
Span = Tuple[int, Optional[int], str, float, float]

_INHERITED = object()


class SpanRecorder:
    """Installs wrappers and keeps the spans they record in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._installed: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a
        recording wrapper; :meth:`uninstall` puts the original back."""
        original = getattr(owner, attr)
        if inspect.iscoroutinefunction(original):
            wrapper = self._async_wrapper(original, name)
        else:
            wrapper = self._sync_wrapper(original, name)
        # An inherited method is restored by deleting the override.
        self._installed.append((owner, attr,
                                vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _sync_wrapper(self, fn, name: str):
        spans, ids, current, clock = (self.spans, self._ids,
                                      self._current, self.clock)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                spans.append((span_id, parent, name, start, end))

        return wrapper

    def _async_wrapper(self, fn, name: str):
        spans, ids, current, clock = (self.spans, self._ids,
                                      self._current, self.clock)

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                spans.append((span_id, parent, name, start, end))

        return wrapper

    def take(self) -> List[Span]:
        """Hand over the spans recorded so far and start afresh."""
        taken, self.spans[:] = list(self.spans), []
        return taken


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's
    intervals (clipped to the span)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for sid, _parent, _name, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[sid] = (end - start) - covered
    return result


def aggregate(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and
    ``root_s`` (time in spans that have no recorded parent)."""
    selfs = self_times(spans)
    known = {span[0] for span in spans}
    table: Dict[str, Dict[str, float]] = {}
    for sid, parent, name, start, end in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "root_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
        if parent is None or parent not in known:
            row["root_s"] += end - start
    return table

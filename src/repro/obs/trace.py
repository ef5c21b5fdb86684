"""Update-lifecycle tracing on the virtual clock.

The evaluation's phase breakdowns (Fig. 8a) aggregate virtual time by
label, which answers *how much* but not *when* or *inside what*.  A
:class:`Tracer` records **spans** — named intervals on the device's
virtual clock, nested by a context-manager stack — and **instants**
(zero-duration marks, e.g. lifecycle events), and exports both as
Chrome-trace JSON loadable by ``chrome://tracing`` or Perfetto.

Design constraints:

* **Zero perturbation when off.**  A disabled tracer's :meth:`span`
  returns a shared null context and :meth:`instant` returns
  immediately, so the fleet/bench hot paths (which never enable
  tracing) pay only an attribute check.  Enabling a tracer never
  advances the clock — tracing reads time, it does not spend it.
* **Virtual timestamps.**  Spans open and close at ``now_fn()``
  (normally ``device.clock.now``); the exported ``ts``/``dur`` are in
  microseconds of *virtual* time, so the trace shows the modeled
  timeline, not host scheduling noise.
* **Explicit parentage.**  Every exported span carries ``span_id`` and
  ``parent_id`` in its ``args``, so a consumer can verify parent/child
  containment without reconstructing Chrome's implicit stack rules
  (``tests/test_obs_cli.py`` does exactly that).

A tracer is single-threaded by design: span nesting is a stack.  The
fleet executors never enable per-device tracers, so the parallel path
is unaffected.  The serve plane's interleaved asyncio requests need
the :mod:`repro.obs.asynctrace` tracer instead, whose span context is
a :mod:`contextvars` variable rather than a stack.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "NULL_TRACER", "merge_chrome_traces",
           "containment_errors"]

#: Virtual seconds → Chrome-trace microseconds.
_US = 1_000_000.0


class Span:
    """One closed interval on the virtual timeline."""

    __slots__ = ("name", "category", "start", "end", "span_id",
                 "parent_id", "args")

    def __init__(self, name: str, category: str, start: float,
                 span_id: int, parent_id: Optional[int],
                 args: Dict[str, Any]) -> None:
        self.name = name
        self.category = category
        self.start = start
        self.end = start
        self.span_id = span_id
        self.parent_id = parent_id
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Span(%r, %.6f..%.6f, id=%d, parent=%r)" % (
            self.name, self.start, self.end, self.span_id, self.parent_id)


class _NullContext:
    """Context manager returned by a disabled tracer — does nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _SpanContext:
    """Opens a span on entry, closes it on exit (even on exceptions)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            # Record why the span ended early; the exception propagates.
            self._span.args.setdefault("error", exc_type.__name__)
        self._tracer._close(self._span)
        return False


class Tracer:
    """Records spans and instants against a virtual clock.

    ``now_fn`` supplies timestamps (normally ``lambda: clock.now``).
    Disabled by default: every :class:`~repro.sim.SimulatedDevice`
    carries a tracer, but only explicit consumers (``cli trace``, the
    observability tests) flip ``enabled``.
    """

    def __init__(self, now_fn: Optional[Callable[[], float]] = None,
                 enabled: bool = False) -> None:
        self.now_fn = now_fn or (lambda: 0.0)
        self.enabled = enabled
        self.spans: List[Span] = []
        self.instants: List[Dict[str, Any]] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # -- recording ----------------------------------------------------------

    def span(self, name: str, category: str = "update",
             **args: Any) -> "_SpanContext | _NullContext":
        """Open a nested span; close it by exiting the ``with`` block."""
        if not self.enabled:
            return _NULL_CONTEXT
        parent_id = self._stack[-1].span_id if self._stack else None
        span = Span(name, category, self.now_fn(), self._next_id,
                    parent_id, args)
        self._next_id += 1
        self._stack.append(span)
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        span.end = self.now_fn()
        # Tolerate out-of-order closes (an exception unwinding through
        # several contexts closes inner-first, which pops cleanly).
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span)
        self.spans.append(span)

    def instant(self, name: str, category: str = "mark",
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a zero-duration mark at the current virtual time."""
        if not self.enabled:
            return
        parent_id = self._stack[-1].span_id if self._stack else None
        self.instants.append({
            "name": name,
            "category": category,
            "t": self.now_fn(),
            "parent_id": parent_id,
            "args": dict(args) if args else {},
        })

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()
        self._stack.clear()
        self._next_id = 1

    # -- export -------------------------------------------------------------

    def to_chrome_trace(self, pid: int = 1,
                        process_name: Optional[str] = None,
                        tid: int = 1) -> Dict[str, Any]:
        """Chrome-trace document: complete (``X``) + instant (``i``) events."""
        events: List[Dict[str, Any]] = []
        if process_name:
            events.append({
                "ph": "M", "pid": pid, "tid": tid,
                "name": "process_name",
                "args": {"name": process_name},
            })
        for span in sorted(self.spans, key=lambda s: (s.start, s.span_id)):
            args = dict(span.args)
            args["span_id"] = span.span_id
            args["parent_id"] = span.parent_id
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": round(span.start * _US, 3),
                "dur": round(span.duration * _US, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            })
        for instant in self.instants:
            events.append({
                "name": instant["name"],
                "cat": instant["category"],
                "ph": "i",
                "s": "t",
                "ts": round(instant["t"] * _US, 3),
                "pid": pid,
                "tid": tid,
                "args": dict(instant["args"],
                             parent_id=instant["parent_id"]),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


#: Shared disabled tracer for call sites whose device lacks one.
NULL_TRACER = Tracer(enabled=False)


def merge_chrome_traces(documents: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Concatenate several Chrome-trace documents into one."""
    events: List[Dict[str, Any]] = []
    for document in documents:
        events.extend(document.get("traceEvents", []))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def containment_errors(trace_events: List[Dict[str, Any]],
                       tolerance_us: float = 0.5) -> List[str]:
    """Check parent/child containment of exported ``X`` spans.

    Every span naming a ``parent_id`` must lie within its parent's
    ``[ts, ts + dur]`` window, up to rounding tolerance.  Parents are
    resolved per ``pid`` but across ``tid`` lanes: the async tracer
    exports one lane per request/task, and concurrent siblings in
    different lanes legitimately share a parent (span ids are unique
    per exporting process, i.e. per pid).  Cross-process parentage is
    carried as ``args.remote_parent_id`` and deliberately *not*
    checked here — merged documents join on ``trace_id`` instead.
    Returns human-readable violations; empty means the trace nests.
    """
    errors: List[str] = []
    spans: List[tuple] = []
    by_id: Dict[tuple, Dict[str, Any]] = {}
    for event in trace_events:
        if event.get("ph") != "X":
            continue
        span_id = event.get("args", {}).get("span_id")
        if span_id is None:
            errors.append("X event %r lacks args.span_id"
                          % event.get("name"))
            continue
        spans.append((event["pid"], span_id, event))
        by_id[(event["pid"], span_id)] = event
    for pid, span_id, event in spans:
        parent_id = event["args"].get("parent_id")
        if parent_id is None:
            continue
        parent = by_id.get((pid, parent_id))
        if parent is None:
            errors.append("span %r (id %d) names missing parent %d"
                          % (event["name"], span_id, parent_id))
            continue
        start, end = event["ts"], event["ts"] + event["dur"]
        pstart = parent["ts"] - tolerance_us
        pend = parent["ts"] + parent["dur"] + tolerance_us
        if start < pstart or end > pend:
            errors.append(
                "span %r [%s, %s] escapes parent %r [%s, %s]"
                % (event["name"], start, end, parent["name"],
                   parent["ts"], parent["ts"] + parent["dur"]))
    return errors

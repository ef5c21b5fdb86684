"""A small metrics registry: counters, gauges, fixed-bucket histograms.

One front door for every number the harnesses report: transports count
bytes and retries, the agent's pipeline accounts per-stage volume, the
campaign observes per-wave timings, and the existing bespoke stats
objects (crypto engine, update server, flash devices) are *surfaced*
through collector callbacks instead of being scraped ad hoc.

The registry is deliberately Prometheus-shaped (counter / gauge /
histogram with fixed upper bounds) but dependency-free and snapshot
oriented: :meth:`MetricsRegistry.snapshot` runs the registered
collectors, then returns a plain ``dict`` ready for JSON or a summary
table.  All mutation is lock-protected so the serve plane's threads
can share one registry.
"""

from __future__ import annotations

import threading
from dataclasses import is_dataclass, fields as dataclass_fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "UPDATE_LATENCY_BUCKETS",
    "WAVE_SECONDS_BUCKETS",
    "HOST_SECONDS_BUCKETS",
    "bind_engine",
    "bind_server",
    "bind_device",
]

#: End-to-end update latency in virtual seconds (a 100 kB BLE transfer
#: alone is ~48 s, so the grid reaches into the tens of minutes).
UPDATE_LATENCY_BUCKETS = (5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0,
                          1800.0)
#: Per-wave modeled duration (slowest device in the wave).
WAVE_SECONDS_BUCKETS = UPDATE_LATENCY_BUCKETS
#: Host wall-clock per wave (the executor's own cost).
HOST_SECONDS_BUCKETS = (0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0)


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "",
                 lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self.help_text = help_text
        self.value = 0.0
        self._lock = lock or threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % amount)
        with self._lock:
            self.value += amount

    def to_value(self) -> float:
        return self.value


class Gauge:
    """A value that can go anywhere (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "",
                 lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self.help_text = help_text
        self.value = 0.0
        self._lock = lock or threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def to_value(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram (cumulative counts, like Prometheus).

    ``buckets`` are inclusive upper bounds; one overflow bucket
    (``+Inf``) is implicit.  Bounds are fixed at creation — re-requesting
    the histogram with different bounds is a programming error.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float],
                 help_text: str = "",
                 lock: Optional[threading.Lock] = None) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.help_text = help_text
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self._lock = lock or threading.Lock()

    def observe(self, value: float) -> None:
        """Record one value.

        Bucket bounds are *inclusive* upper bounds (Prometheus ``le``
        semantics): a value exactly on a boundary lands in that bucket,
        never the next one up.  ``+inf`` (and NaN, which compares false
        against every bound) lands in the implicit overflow bucket —
        :meth:`cumulative` keeps its ``+Inf`` count equal to ``count``
        either way, so the OpenMetrics export can never disagree with
        what ``observe`` recorded.
        """
        with self._lock:
            self.total += 1
            self.sum += value
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self.counts[index] += 1
                    return
            self.counts[-1] += 1

    def to_value(self) -> Dict[str, Any]:
        """JSON snapshot with *per-bucket* counts (``+Inf`` = overflow
        only).  The OpenMetrics export must not use these directly —
        that format wants :meth:`cumulative` counts."""
        buckets = {("%g" % bound): count
                   for bound, count in zip(self.bounds, self.counts)}
        buckets["+Inf"] = self.counts[-1]
        return {"count": self.total, "sum": round(self.sum, 6),
                "buckets": buckets}

    def cumulative(self) -> List[Tuple[str, int]]:
        """Cumulative ``(le_label, count)`` pairs, OpenMetrics-style.

        The running sum is taken under the lock from the same counts
        ``observe`` filled, so boundary values and overflow observations
        are consistent by construction: each ``le=B`` entry counts every
        observation ``<= B`` and the final ``+Inf`` entry always equals
        the histogram's total ``count``.
        """
        with self._lock:
            counts = list(self.counts)
            total = self.total
        running = 0
        out: List[Tuple[str, int]] = []
        for bound, count in zip(self.bounds, counts):
            running += count
            out.append(("%g" % bound, running))
        out.append(("+Inf", total))
        return out


#: A collector mutates the registry (typically sets gauges) when a
#: snapshot is taken; it receives the registry itself.
Collector = Callable[["MetricsRegistry"], None]


class MetricsRegistry:
    """Named metrics plus pull-style collectors.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create by name and
    raise on kind conflicts, so independent instrumentation sites can
    share a metric without coordination.
    """

    def __init__(self) -> None:
        self._metrics: "Dict[str, Any]" = {}
        self._collectors: List[Collector] = []
        self._lock = threading.Lock()

    # -- get-or-create -------------------------------------------------------

    def _get(self, name: str, kind: str, factory: Callable[[], Any]):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif metric.kind != kind:
                raise TypeError("metric %r is a %s, not a %s"
                                % (name, metric.kind, kind))
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(name, "counter",
                         lambda: Counter(name, help_text))

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(name, "gauge", lambda: Gauge(name, help_text))

    def histogram(self, name: str, buckets: Sequence[float],
                  help_text: str = "") -> Histogram:
        return self._get(name, "histogram",
                         lambda: Histogram(name, buckets, help_text))

    # -- collectors ----------------------------------------------------------

    def add_collector(self, collector: Collector) -> None:
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in list(self._collectors):
            collector(self)

    # -- output --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Run collectors, then return ``{name: value}`` sorted by name."""
        self.collect()
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name].to_value()
                for name in sorted(metrics)}

    def typed_metrics(self) -> List[Any]:
        """Run collectors, then return the metric *objects* sorted by
        name — the exposition formats (OpenMetrics) need each metric's
        kind and help text, which :meth:`snapshot` flattens away."""
        self.collect()
        with self._lock:
            metrics = dict(self._metrics)
        return [metrics[name] for name in sorted(metrics)]

    def format_table(self, snapshot: Optional[Dict[str, Any]] = None) -> str:
        """Fixed-width summary table of a snapshot."""
        if snapshot is None:
            snapshot = self.snapshot()
        if not snapshot:
            return "(no metrics recorded)"
        width = max(len(name) for name in snapshot)
        lines = []
        for name, value in snapshot.items():
            if isinstance(value, dict):  # histogram
                rendered = "count=%d sum=%s" % (value["count"],
                                                value["sum"])
            elif float(value) == int(value):
                rendered = "%d" % int(value)
            else:
                rendered = "%.4f" % value
            lines.append("%-*s  %s" % (width, name, rendered))
        return "\n".join(lines)


# -- collectors for the existing bespoke stats objects -----------------------


def _bind_dataclass_stats(registry: MetricsRegistry, prefix: str,
                          stats_source: Callable[[], Any]) -> None:
    """Mirror a stats dataclass's numeric fields into prefixed gauges."""

    def collect(reg: MetricsRegistry) -> None:
        stats = stats_source()
        if stats is None or not is_dataclass(stats):
            return
        for field in dataclass_fields(stats):
            value = getattr(stats, field.name)
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                reg.gauge("%s%s" % (prefix, field.name)).set(value)

    registry.add_collector(collect)


def bind_engine(registry: MetricsRegistry, engine: Any) -> None:
    """Surface a crypto engine's verify-cache and table counters.

    The fast engine's :class:`~repro.crypto.engine.EngineStats` become
    ``crypto.*`` gauges (``crypto.verify_calls``,
    ``crypto.verify_cache_hits``, ``crypto.key_tables_built``,
    ``crypto.key_tables_evicted``).  The reference engine keeps no
    stats; binding it is a no-op at collection time.
    """
    _bind_dataclass_stats(registry, "crypto.",
                          lambda: getattr(engine, "stats", None))


def bind_server(registry: MetricsRegistry, server: Any) -> None:
    """Surface :class:`~repro.core.server.ServerStats` as ``server.*``
    gauges (including ``server.delta_cache_hits`` and
    ``server.delta_cache_evictions``)."""
    _bind_dataclass_stats(registry, "server.",
                          lambda: getattr(server, "stats", None))


def bind_device(registry: MetricsRegistry, device: Any) -> None:
    """Surface one simulated device's agent/flash/clock/energy state.

    Registered automatically by :class:`~repro.sim.SimulatedDevice` on
    its own registry:

    * ``agent.*`` — the :class:`~repro.core.agent.AgentStats` counters;
    * ``flash.*`` — summed over the layout's distinct flash devices
      (writes, erases, wear);
    * ``time.<phase>_seconds`` — the virtual clock's phase breakdown;
    * ``energy.<component>_mj`` and ``energy.total_mj``.
    """
    _bind_dataclass_stats(registry, "agent.",
                          lambda: getattr(device.agent, "stats", None))

    def collect(reg: MetricsRegistry) -> None:
        totals = {"bytes_read": 0, "bytes_written": 0, "pages_erased": 0,
                  "write_calls": 0}
        max_wear = 0
        for flash in device.flash_devices:
            stats = flash.stats
            for key in totals:
                totals[key] += getattr(stats, key)
            max_wear = max(max_wear, stats.max_wear)
        for key, value in totals.items():
            reg.gauge("flash.%s" % key).set(value)
        reg.gauge("flash.max_wear").set(max_wear)
        for phase, seconds in device.clock.elapsed_by_label().items():
            reg.gauge("time.%s_seconds" % phase).set(round(seconds, 6))
        breakdown = device.meter.breakdown_mj()
        for component, energy in breakdown.items():
            reg.gauge("energy.%s_mj" % component).set(round(energy, 6))
        reg.gauge("energy.total_mj").set(
            round(sum(breakdown.values()), 6))

    registry.add_collector(collect)

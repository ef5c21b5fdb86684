"""Bounded virtual-clock time series: the fleet telemetry plane's store.

A campaign over thousands of devices produces far more samples than a
dashboard (or this simulation's memory budget) wants to keep.  This
module stores ``(virtual_time, value)`` points per named series with a
hard per-series bound: when a series overflows, it *downsamples* —
adjacent points are pairwise-merged (mean value, later timestamp), so
the series keeps its full time extent at half the resolution, exactly
like a fixed-size RRD.  Downsampling is deterministic: the same
appends always produce the same stored points.

Timestamps are **virtual-clock** seconds (each device's own
:class:`~repro.sim.clock.VirtualClock`), never host wall-clock: the
telemetry plane observes the simulation without being *of* it.  The
:class:`FleetScraper` is the bridge — it snapshots a device's
:class:`~repro.obs.metrics.MetricsRegistry` (a pure read: collectors
set gauges from existing stats objects, nothing advances any clock)
and lands each numeric value in a per-device series.  Campaigns stay
cycle-identical with or without a scraper attached; the tests assert
report equality byte for byte.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Point", "Series", "TimeSeriesStore", "FleetScraper",
           "DEFAULT_MAX_POINTS"]

#: Default per-series bound.  Must be even (pairwise downsampling) and
#: small enough that a million-device campaign's store stays flat.
DEFAULT_MAX_POINTS = 256


class Point(NamedTuple):
    """One sample: virtual-clock time and value."""

    t: float
    value: float


class Series:
    """One bounded series of :class:`Point` s with pairwise downsampling.

    ``resolution`` reports how many raw appends each stored point
    currently represents (1 until the first downsample, then 2, 4, …) —
    consumers can tell a raw series from a compacted one.
    """

    __slots__ = ("name", "max_points", "points", "resolution")

    def __init__(self, name: str,
                 max_points: int = DEFAULT_MAX_POINTS) -> None:
        if max_points < 8 or max_points % 2:
            raise ValueError("max_points must be an even number >= 8")
        self.name = name
        self.max_points = max_points
        self.points: List[Point] = []
        self.resolution = 1

    def append(self, t: float, value: float) -> None:
        """Add one sample; timestamps must not go backwards."""
        if self.points and t < self.points[-1].t:
            raise ValueError(
                "series %r: time went backwards (%.6f < %.6f)"
                % (self.name, t, self.points[-1].t))
        self.points.append(Point(float(t), float(value)))
        if len(self.points) > self.max_points:
            self._downsample()

    def _downsample(self) -> None:
        """Pairwise-merge: mean value, later timestamp; odd tail kept."""
        merged: List[Point] = []
        for index in range(0, len(self.points) - 1, 2):
            first, second = self.points[index], self.points[index + 1]
            merged.append(Point(second.t,
                                (first.value + second.value) / 2.0))
        if len(self.points) % 2:
            merged.append(self.points[-1])
        self.points = merged
        self.resolution *= 2

    # -- reading -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def latest(self) -> Optional[Point]:
        return self.points[-1] if self.points else None

    def values(self) -> List[float]:
        return [point.value for point in self.points]

    def window(self, t0: float, t1: float) -> List[Point]:
        """Points with ``t0 <= t < t1`` (already time-ordered)."""
        return [point for point in self.points if t0 <= point.t < t1]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "resolution": self.resolution,
            "points": [[round(point.t, 6), round(point.value, 6)]
                       for point in self.points],
        }


class TimeSeriesStore:
    """Named, bounded series; get-or-create like the metrics registry.

    Mutation is lock-protected, so one store can be shared across
    threads.
    """

    def __init__(self, max_points: int = DEFAULT_MAX_POINTS) -> None:
        self.max_points = max_points
        self._series: Dict[str, Series] = {}
        self._lock = threading.Lock()

    def series(self, name: str) -> Series:
        with self._lock:
            found = self._series.get(name)
            if found is None:
                found = Series(name, self.max_points)
                self._series[name] = found
            return found

    def record(self, name: str, t: float, value: float) -> None:
        series = self.series(name)
        with self._lock:
            series.append(t, value)

    def get(self, name: str) -> Optional[Series]:
        with self._lock:
            return self._series.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def total_points(self) -> int:
        with self._lock:
            return sum(len(series) for series in self._series.values())

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {name: self._series[name].to_dict()
                    for name in sorted(self._series)}


class FleetScraper:
    """Scrapes device metrics registries into per-device series.

    One scrape flattens a registry snapshot into ``<device>.<metric>``
    series at the device's *own* virtual-clock time: histograms land as
    ``.count`` / ``.sum`` pairs, counters and gauges as-is.  Scraping
    is read-only with respect to the simulation — no clock advances, no
    flash traffic, no energy — which is what keeps traced and untraced
    campaigns cycle-identical (the ``NULL_TRACER`` discipline).
    """

    def __init__(self, store: Optional[TimeSeriesStore] = None,
                 max_points: int = DEFAULT_MAX_POINTS) -> None:
        self.store = store if store is not None \
            else TimeSeriesStore(max_points)
        self.scrapes = 0

    def scrape(self, label: str, registry: Any, t: float) -> int:
        """Snapshot ``registry`` into ``label``-prefixed series at ``t``.

        Returns the number of points recorded.
        """
        recorded = 0
        for name, value in registry.snapshot().items():
            if isinstance(value, dict):  # histogram
                self.store.record("%s.%s.count" % (label, name), t,
                                  value["count"])
                self.store.record("%s.%s.sum" % (label, name), t,
                                  value["sum"])
                recorded += 2
            else:
                self.store.record("%s.%s" % (label, name), t, value)
                recorded += 1
        self.scrapes += 1
        return recorded

    def scrape_device(self, name: str, device: Any) -> int:
        """Scrape one simulated device at its current virtual time."""
        return self.scrape(name, device.metrics, device.clock.now)

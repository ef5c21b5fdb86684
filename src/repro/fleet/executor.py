"""The wave executor: how a campaign drives the devices of one wave.

``Campaign.run`` plans *waves* (canary first, then the rest) and models
their wall-clock as if devices within a wave updated in parallel — each
against its own radio.  Every simulated cost comes off the device's own
virtual clock, never the host's, so execution itself is serial: devices
update one after the other on the calling thread, which keeps the
campaign fully deterministic.
"""

from __future__ import annotations

import time
from typing import Callable, List, Sequence, TypeVar

__all__ = ["SerialWaveExecutor"]

_Record = TypeVar("_Record")
_Outcome = TypeVar("_Outcome")

#: Called per device: (record, target_version) -> Optional[UpdateOutcome].
UpdateFn = Callable[[_Record, int], _Outcome]


class SerialWaveExecutor:
    """Runs one wave device by device; returns outcomes in wave order."""

    #: Optional telemetry scrape hook, ``record -> None`` (set by the
    #: campaign when a :class:`~repro.obs.slo.FleetTelemetry` is
    #: attached).  Called once per device, right after its update
    #: finishes — a pure read of the device's metrics registry at its
    #: final virtual-clock time, so scraping never perturbs the
    #: simulation.
    scrape = None

    def __init__(self, metrics=None) -> None:
        #: Optional :class:`~repro.obs.MetricsRegistry`: when set, each
        #: wave's *host* wall-clock (the executor's own cost, distinct
        #: from the devices' virtual time) is observed as
        #: ``executor.wave_host_seconds``.
        self.metrics = metrics

    def run_wave(self, update: UpdateFn, wave: Sequence[_Record],
                 target: int) -> List[_Outcome]:
        start = time.perf_counter()
        outcomes = []
        for record in wave:
            outcomes.append(update(record, target))
            if self.scrape is not None:
                self.scrape(record)
        self._observe_wave(time.perf_counter() - start, len(wave))
        return outcomes

    def _observe_wave(self, host_seconds: float, devices: int) -> None:
        if self.metrics is None:
            return
        from ..obs.metrics import HOST_SECONDS_BUCKETS

        self.metrics.counter("executor.waves").inc()
        self.metrics.counter("executor.devices_driven").inc(devices)
        self.metrics.histogram("executor.wave_host_seconds",
                               HOST_SECONDS_BUCKETS).observe(host_seconds)

"""Radio-link models: BLE GATT (push) and CoAP over 6LoWPAN (pull).

A link turns byte counts into time and packet counts.  The model is a
per-packet one — constrained radios are dominated by per-packet
overhead (connection events for BLE, block-wise request/response
round-trips for CoAP), not by raw PHY throughput:

``time = packets × packet_interval + bytes / raw_throughput``

with deterministic packet loss triggering retransmissions after a
timeout.  The two built-in profiles are calibrated so a 100 kB transfer
reproduces the paper's propagation times (47.7 s over BLE push, 41.7 s
over CoAP pull — Fig. 8a).

Beyond steady-state loss, a link can carry a *fault schedule*:

* :class:`Outage` — the link goes down once the cumulative delivered
  byte count reaches a threshold; the next N transfer attempts raise
  :class:`LinkDownError` (the transports' resume logic turns these into
  backoff + re-request instead of a failed update);
* :class:`LossBurst` — a window of elevated packet loss over a
  cumulative-byte range (a microwave oven, a passing truck);
* :class:`Slowdown` — per-packet costs multiply by a factor once a
  cumulative-byte threshold is crossed (a marginal radio at the edge of
  range: still delivering, just slowly — the *straggler* case the fleet
  telemetry plane detects).

Every random draw comes from a **per-link** ``random.Random(seed)``
(never the module-global ``random``), so one device's loss pattern is
reproducible in isolation and immune to unrelated RNG consumers — the
property the chaos sweep depends on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

__all__ = ["LinkProfile", "Link", "TransferReport", "Outage", "LossBurst",
           "Slowdown", "LinkDownError", "BLE_GATT", "COAP_6LOWPAN",
           "get_link_profile"]


class LinkDownError(Exception):
    """The link is (temporarily) down: this transfer attempt failed.

    Deliberately *not* an :class:`~repro.core.errors.UpdateError` — the
    transports decide whether to resume (backoff + retry from the last
    verified offset) or to abandon, and only the latter surfaces as an
    update failure.
    """


@dataclass(frozen=True)
class LinkProfile:
    """Static parameters of one radio transport."""

    name: str
    mtu: int                       # payload bytes per packet/block
    packet_interval: float         # seconds per delivered packet
    raw_throughput: float          # bytes/second on top of intervals
    retransmit_timeout: float      # extra delay per lost packet

    def packets_for(self, nbytes: int) -> int:
        return max(1, -(-nbytes // self.mtu)) if nbytes else 0


# 100 kB / 20 B = 5120 packets × 9.3 ms ≈ 47.7 s (Fig. 8a, push).
BLE_GATT = LinkProfile(
    name="ble-gatt",
    mtu=20,
    packet_interval=0.00930,
    raw_throughput=1_000_000.0,
    retransmit_timeout=0.030,
)

# 100 kB / 64 B = 1600 blocks × 26 ms ≈ 41.7 s (Fig. 8a, pull).
COAP_6LOWPAN = LinkProfile(
    name="coap-6lowpan",
    mtu=64,
    packet_interval=0.02600,
    raw_throughput=1_000_000.0,
    retransmit_timeout=0.250,
)

_PROFILES = {profile.name: profile for profile in (BLE_GATT, COAP_6LOWPAN)}


def get_link_profile(name: str) -> LinkProfile:
    try:
        return _PROFILES[name.lower()]
    except KeyError:
        raise KeyError("unknown link %r (have: %s)"
                       % (name, ", ".join(sorted(_PROFILES)))) from None


@dataclass(frozen=True)
class TransferReport:
    """Cost of one transfer over a link."""

    payload_bytes: int
    packets: int
    retransmissions: int
    seconds: float


@dataclass(frozen=True)
class Outage:
    """The link drops once ``at_byte`` cumulative bytes were delivered.

    After firing, the next ``failures`` transfer attempts raise
    :class:`LinkDownError`; the link then recovers.  Attempt-counted
    (not wall-clock) so the schedule is deterministic regardless of how
    the caller paces its retries.
    """

    at_byte: int
    failures: int = 1

    def __post_init__(self) -> None:
        if self.at_byte < 0:
            raise ValueError("at_byte must be non-negative")
        if self.failures < 1:
            raise ValueError("failures must be at least 1")


@dataclass(frozen=True)
class LossBurst:
    """Elevated packet loss while cumulative bytes are in a window."""

    start_byte: int
    end_byte: int
    loss_rate: float

    def __post_init__(self) -> None:
        if not (0 <= self.start_byte < self.end_byte):
            raise ValueError("need 0 <= start_byte < end_byte")
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError("loss_rate must be in [0, 1)")

    def covers(self, total_bytes: int) -> bool:
        return self.start_byte <= total_bytes < self.end_byte


@dataclass(frozen=True)
class Slowdown:
    """Per-packet costs multiply by ``factor`` from ``at_byte`` onwards.

    Unlike an :class:`Outage` the link keeps delivering — every packet
    just costs ``factor`` times the profile's interval (and retransmit
    timeout).  ``at_byte=0`` models a device that is slow from the
    start; a later threshold models a link that degrades mid-transfer.
    """

    at_byte: int
    factor: float

    def __post_init__(self) -> None:
        if self.at_byte < 0:
            raise ValueError("at_byte must be non-negative")
        if self.factor < 1.0:
            raise ValueError("slowdown factor must be >= 1")


class Link:
    """A lossy link instance with deterministic loss and fault schedule."""

    def __init__(self, profile: LinkProfile, loss_rate: float = 0.0,
                 seed: int = 0,
                 outages: Sequence[Outage] = (),
                 loss_bursts: Sequence[LossBurst] = (),
                 slowdowns: Sequence[Slowdown] = ()) -> None:
        if not (0.0 <= loss_rate < 1.0):
            raise ValueError("loss_rate must be in [0, 1)")
        self.profile = profile
        self.loss_rate = loss_rate
        self.seed = seed
        #: Per-instance RNG: loss patterns replay exactly for a given
        #: (profile, seed, schedule) no matter what else draws randomness.
        self._rng = random.Random(seed)
        self.total_packets = 0
        self.total_retransmissions = 0
        self.total_bytes = 0
        self.down_events = 0
        self._outages: List[Outage] = sorted(outages,
                                             key=lambda o: o.at_byte)
        self._bursts: List[LossBurst] = list(loss_bursts)
        self._slowdowns: List[Slowdown] = sorted(slowdowns,
                                                 key=lambda s: s.at_byte)
        self._down_for = 0  # failures remaining in the active outage

    def _effective_loss_rate(self) -> float:
        for burst in self._bursts:
            if burst.covers(self.total_bytes):
                return burst.loss_rate
        return self.loss_rate

    def _slowdown_factor(self) -> float:
        factor = 1.0
        for slowdown in self._slowdowns:
            if self.total_bytes >= slowdown.at_byte:
                factor = max(factor, slowdown.factor)
        return factor

    def _check_outage(self) -> None:
        if self._down_for == 0 and self._outages \
                and self.total_bytes >= self._outages[0].at_byte:
            self._down_for = self._outages.pop(0).failures
        if self._down_for > 0:
            self._down_for -= 1
            self.down_events += 1
            raise LinkDownError(
                "%s link down (%d cumulative bytes delivered)"
                % (self.profile.name, self.total_bytes))

    def next_threshold(self) -> Optional[int]:
        """Cumulative byte count where the fault schedule next changes;
        a run of frames must not start a frame at or past it.

        The nearest :class:`Outage` ``at_byte``, :class:`LossBurst`
        start or end, or :class:`Slowdown` ``at_byte`` beyond
        :attr:`total_bytes`; ``None`` when nothing more is scheduled.
        While an outage is active or due this is :attr:`total_bytes`
        itself: the next transfer fails whatever its size.
        """
        total = self.total_bytes
        if self._down_for or (self._outages
                              and self._outages[0].at_byte <= total):
            return total
        points = [outage.at_byte for outage in self._outages[:1]]
        points += [edge for burst in self._bursts
                   for edge in (burst.start_byte, burst.end_byte)]
        points += [slowdown.at_byte for slowdown in self._slowdowns]
        later = [point for point in points if point > total]
        return min(later) if later else None

    def transfer(self, nbytes: int) -> TransferReport:
        """Model delivering ``nbytes`` of payload, one MTU frame or a
        run of many, as ``ceil(nbytes / mtu)`` packets with one loss
        draw each, in order; returns the cost.

        A run costs exactly what its frames cost as one-frame transfers
        as long as every frame starts before :meth:`next_threshold`: the
        schedule (outage, loss rate, slowdown factor) is read once, at
        the start.

        Raises :class:`LinkDownError` — delivering nothing and charging
        nothing — while an :class:`Outage` is active.
        """
        self._check_outage()
        packets = self.profile.packets_for(nbytes)
        retransmissions = 0
        loss_rate = self._effective_loss_rate()
        if loss_rate:
            for _ in range(packets):
                while self._rng.random() < loss_rate:
                    retransmissions += 1
        factor = self._slowdown_factor()
        seconds = (
            (packets + retransmissions) * self.profile.packet_interval
            * factor
            + retransmissions * self.profile.retransmit_timeout * factor
            + nbytes / self.profile.raw_throughput
        )
        self.total_packets += packets + retransmissions
        self.total_retransmissions += retransmissions
        self.total_bytes += nbytes
        return TransferReport(nbytes, packets, retransmissions, seconds)

    def chunks(self, data: bytes) -> Iterator[bytes]:
        """Split ``data`` into MTU-sized wire chunks."""
        mtu = self.profile.mtu
        for offset in range(0, len(data), mtu):
            yield data[offset:offset + mtu]

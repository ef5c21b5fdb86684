"""The fault injector: wires a :class:`~repro.faults.plan.FaultPlan`
into a live testbed.

Each fault kind lands in the layer it belongs to:

* power-loss points arm the flash devices' own countdown
  (:meth:`~repro.memory.flash.FlashMemory.inject_power_loss`), filtered
  to writes, erases or both;
* link outages, loss bursts and slowdowns become the
  :class:`~repro.net.link.Link` fault schedule (build the link via
  :meth:`FaultInjector.make_link`);
* reboot points become the device's fed-byte reboot marks
  (:meth:`~repro.sim.SimulatedDevice.add_reboot_mark`), so the agent
  loses power — :class:`DeviceRebooted` propagates out of the
  transport, RAM state is gone, flash state stays exactly as written;
* server outage points wrap ``server.prepare_update`` to raise
  :class:`~repro.core.ServerUnavailable` for a window of requests;
* bit-rot points corrupt stored slot bytes *after* the transfer but
  before the decisive boot (:meth:`FaultInjector.apply_pre_boot`).

Server outages are an instance-level wrapper on the testbed's own
server: a fresh testbed per point (the chaos runner's protocol) means
nothing leaks between points.
"""

from __future__ import annotations

from typing import List

from ..core import ServerUnavailable
from ..net.link import COAP_6LOWPAN, Link, LinkProfile, LossBurst, \
    Outage, Slowdown
from ..sim.device import DeviceRebooted
from .plan import FaultKind, FaultPlan, FaultPoint

__all__ = ["DeviceRebooted", "FaultInjector", "BURST_LOSS_RATE"]

#: Packet-loss rate inside an injected :class:`LossBurst` window.
BURST_LOSS_RATE = 0.5

#: Bytes corrupted by one bit-rot point.
_ROT_BYTES = 4

_DURING = {
    FaultKind.POWER_LOSS_WRITE: "write",
    FaultKind.POWER_LOSS_ERASE: "erase",
    FaultKind.POWER_LOSS_ANY: "any",
}


class FaultInjector:
    """Arms every fault of one plan against one testbed.

    Protocol (what :mod:`repro.tools.chaos` drives):

    1. build the link with :meth:`make_link` and hand it to the
       transport;
    2. :meth:`arm` before the first transfer attempt;
    3. after every power cycle call :meth:`rearm` (arms the next queued
       power-loss point, if the previous one fired);
    4. :meth:`apply_pre_boot` once the transfer is over, before the
       boot that decides the update.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: Power-loss points are armed one at a time (a flash device
        #: holds a single countdown); each ``at`` counts operations from
        #: its own arming — i.e. from the previous power cycle.
        self._power_queue: List[FaultPoint] = [
            point for point in plan.points if point.kind in _DURING]

    # -- link-layer faults --------------------------------------------------

    def make_link(self, profile: LinkProfile = COAP_6LOWPAN,
                  loss_rate: float = 0.0) -> Link:
        """A link carrying the plan's outage/burst schedule.

        Reuse the same link across transfer attempts: outage schedules
        are cumulative-byte based, so a re-created link would replay
        already-survived outages.
        """
        # Correlated kinds share the per-device mechanics: a LINK_STORM
        # is an outage every domain member hits at the same byte, a
        # HERD_REBOOT is a single synchronized connection drop, a
        # LOSS_FRONT is a shared loss burst.  The *correlation* lives in
        # the DomainPlan handing every member the same coordinates; the
        # link replays them exactly like their per-device twins.
        outages = [Outage(at_byte=point.at,
                          failures=max(1, point.param))
                   for point in (self.plan.of_kind(FaultKind.LINK_OUTAGE)
                                 + self.plan.of_kind(FaultKind.LINK_STORM))]
        outages += [Outage(at_byte=point.at, failures=1)
                    for point in self.plan.of_kind(FaultKind.HERD_REBOOT)]
        bursts = [LossBurst(start_byte=point.at,
                            end_byte=point.at + max(1, point.param),
                            loss_rate=BURST_LOSS_RATE)
                  for point in (self.plan.of_kind(FaultKind.LOSS_BURST)
                                + self.plan.of_kind(FaultKind.LOSS_FRONT))]
        slowdowns = [Slowdown(at_byte=point.at,
                              factor=float(max(2, point.param)))
                     for point in self.plan.of_kind(FaultKind.SLOW_LINK)]
        return Link(profile, loss_rate=loss_rate, seed=self.plan.seed,
                    outages=outages, loss_bursts=bursts,
                    slowdowns=slowdowns)

    # -- device/server faults ----------------------------------------------

    def arm(self, bed) -> None:
        """Install all pre-transfer faults on ``bed`` (a Testbed)."""
        self._arm_next_power_fault(bed)
        self._arm_reboots(bed)
        self._arm_server_outages(bed)

    def rearm(self, bed) -> None:
        """After a power cycle: queue up the next power-loss point.

        A reboot injected while a power-loss countdown is still armed
        leaves that countdown in place — only a *fired* fault advances
        the queue.
        """
        if any(flash.fault_armed for flash in bed.device.flash_devices):
            return
        self._arm_next_power_fault(bed)

    def apply_pre_boot(self, bed) -> None:
        """Bit-rot: corrupt stored slot bytes before the decisive boot.

        ``param`` selects the slot: 0 — slot ``"a"`` (the image the
        device left the factory with), 1 — slot ``"b"`` (where the
        fresh download landed).  ``at`` is the offset inside the slot.
        """
        for point in self.plan.of_kind(FaultKind.BIT_ROT):
            slot = bed.device.layout.get("b" if point.param else "a")
            offset = min(point.at, slot.size - _ROT_BYTES)
            absolute = slot.offset + offset
            stale = slot.flash.peek(absolute, _ROT_BYTES)
            slot.flash.corrupt(absolute,
                               bytes(b ^ 0xA5 for b in stale))

    # -- internals ----------------------------------------------------------

    def _arm_next_power_fault(self, bed) -> None:
        if not self._power_queue:
            return
        point = self._power_queue.pop(0)
        # All devices share the countdown value; whichever reaches it
        # first fires (in the stock layouts every slot shares one
        # internal flash anyway).
        for flash in bed.device.flash_devices:
            flash.clear_fault()
            flash.inject_power_loss(point.at, during=_DURING[point.kind])

    def _arm_reboots(self, bed) -> None:
        # ``at`` counts bytes fed from arming on.
        device = bed.device
        for point in self.plan.of_kind(FaultKind.REBOOT):
            device.add_reboot_mark(device.fed_bytes + point.at)

    def _arm_server_outages(self, bed) -> None:
        points = self.plan.of_kind(FaultKind.SERVER_OUTAGE)
        if not points:
            return
        server = bed.server
        windows = [(point.at, point.at + max(1, point.param))
                   for point in points]
        state = {"requests": 0}
        original = server.prepare_update

        def prepare_update(token):
            index = state["requests"]
            state["requests"] += 1
            for start, end in windows:
                if start <= index < end:
                    raise ServerUnavailable(
                        "update server unreachable (request %d in "
                        "outage window [%d, %d))" % (index, start, end))
            return original(token)

        server.prepare_update = prepare_update

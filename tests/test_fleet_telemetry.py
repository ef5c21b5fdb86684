"""Campaign + telemetry plane integration: cycle identity, SLO-driven
rollout control, and telemetry-driven quarantine.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core import (
    DeviceProfile,
    UpdateServer,
    VendorServer,
    make_test_identities,
    provision_device,
)
from repro.fleet import (
    Campaign,
    DeviceRecord,
    DeviceState,
    RetryPolicy,
    RolloutPolicy,
    SerialWaveExecutor,
)
from repro.fleet import campaign as campaign_module
from repro.memory import MemoryLayout
from repro.net import Link, Outage, TransportRetryPolicy
from repro.net.link import COAP_6LOWPAN
from repro.obs import MetricsRegistry
from repro.obs.slo import SLO, Action, FleetTelemetry
from repro.platform import NRF52840, ZEPHYR
from repro.sim import SimulatedDevice
from repro.workload import FirmwareGenerator
from tests.conftest import APP_ID, LINK_OFFSET

IMAGE_SIZE = 8 * 1024


def build_fleet(count: int, links: "dict[int, Link]" = {}):
    """(server, fleet): v1 provisioned everywhere, v2 published."""
    gen = FirmwareGenerator(seed=b"fleet-telemetry")
    fw_v1 = gen.firmware(IMAGE_SIZE, image_id=1)
    fw_v2 = gen.app_functionality_change(fw_v1, revision=2)
    vendor_id, server_id, anchors = make_test_identities()
    vendor = VendorServer(vendor_id, app_id=APP_ID,
                          link_offset=LINK_OFFSET)
    server = UpdateServer(server_id)
    server.publish(vendor.release(fw_v1, 1))
    fleet = _make_fleet(server, anchors, count, links)
    server.publish(vendor.release(fw_v2, 2))
    return server, fleet


def _make_fleet(server, anchors, count: int,
                links: "dict[int, Link]" = {}) -> List[DeviceRecord]:
    fleet = []
    for index in range(count):
        internal = NRF52840.make_internal_flash()
        layout = MemoryLayout.configuration_a(internal, 128 * 1024)
        profile = DeviceProfile(device_id=0x5000 + index, app_id=APP_ID,
                                link_offset=LINK_OFFSET)
        device = SimulatedDevice(
            board=NRF52840, os_profile=ZEPHYR, layout=layout,
            profile=profile, anchors=anchors,
        )
        provision_device(server, layout.get("a"), profile.device_id)
        fleet.append(DeviceRecord(
            name="dev-%02d" % index,
            device=device,
            transport="pull",
            link=links.get(index),
        ))
    return fleet


def dead_radio_link() -> Link:
    """An outage deep enough that even a resuming transport abandons."""
    return Link(COAP_6LOWPAN, outages=(Outage(at_byte=512,
                                              failures=50),))


# -- cycle identity -----------------------------------------------------------


def test_breach_free_telemetry_is_invisible_to_the_report():
    """The tentpole guarantee: attaching telemetry (scrapes, health
    analysis, SLO evaluation) changes nothing about a healthy rollout —
    the campaign reports are byte-identical."""
    server_a, fleet_a = build_fleet(8)
    server_b, fleet_b = build_fleet(8)
    plain = Campaign(server_a, fleet_a,
                     RolloutPolicy(canary_fraction=0.25)).run()
    telemetry = FleetTelemetry()
    observed = Campaign(server_b, fleet_b,
                        RolloutPolicy(canary_fraction=0.25),
                        telemetry=telemetry).run()
    assert plain.to_dict() == observed.to_dict()
    # ... and the plane did actually watch: every device was sampled.
    assert len(telemetry.samples) == 8
    assert telemetry.verdict() == "ok"
    assert telemetry.store.total_points() > 0


def test_scrape_fires_once_per_device_right_after_its_update(monkeypatch):
    """The scrape hook's contract (the rollout benchmark times each
    device by the gap between scrapes): one call per device, in wave
    order, straight after that device's update finished, and the
    executor counts every device it drove."""
    server, fleet = build_fleet(6)
    events = []
    drive = campaign_module.drive_attempt

    def traced_drive(server, record, target, transport_retry=None):
        events.append(("update", record.name))
        return drive(server, record, target, transport_retry)

    monkeypatch.setattr(campaign_module, "drive_attempt", traced_drive)
    registry = MetricsRegistry()
    executor = SerialWaveExecutor(metrics=registry)
    executor.scrape = lambda record: events.append(
        ("scrape", record.name, record.state))
    report = Campaign(server, fleet, RolloutPolicy(canary_fraction=0.2),
                      executor=executor).run()
    assert len(report.updated) == 6
    in_wave_order = [name for wave in report.waves for name in wave]
    assert len(report.waves) == 2
    expected = []
    for name in in_wave_order:
        expected += [("update", name),
                     ("scrape", name, DeviceState.UPDATED)]
    assert events == expected
    assert registry.snapshot()["executor.devices_driven"] == len(fleet)


# -- SLO-driven rollout control ----------------------------------------------


def test_slo_breach_pauses_the_rollout():
    server, fleet = build_fleet(8)
    telemetry = FleetTelemetry(slos=(
        SLO("impossible-p95", "p95_update_seconds", 0.001,
            Action.PAUSE),))
    report = Campaign(server, fleet,
                      RolloutPolicy(canary_fraction=0.25),
                      telemetry=telemetry).run()
    # The canary breached: rollout paused, the rest left pending.
    assert report.paused and not report.aborted
    assert len(report.waves) == 1
    assert len(report.updated) == 2
    assert sorted(report.pending) == [r.name for r in fleet[2:]]
    assert all(r.state is DeviceState.PENDING for r in fleet[2:])
    assert report.slo_breaches[0]["name"] == "impossible-p95"
    assert telemetry.breached


def test_slo_breach_aborts_the_rollout():
    server, fleet = build_fleet(8)
    telemetry = FleetTelemetry(slos=(
        SLO("impossible-p95", "p95_update_seconds", 0.001,
            Action.ABORT),))
    report = Campaign(server, fleet,
                      RolloutPolicy(canary_fraction=0.25),
                      telemetry=telemetry).run()
    assert report.aborted and not report.paused
    assert sorted(report.skipped) == [r.name for r in fleet[2:]]
    assert all(r.state is DeviceState.SKIPPED for r in fleet[2:])


def test_slo_slow_halves_subsequent_waves():
    server, fleet = build_fleet(9)
    telemetry = FleetTelemetry(slos=(
        SLO("tiny-energy", "max_energy_mj", 0.001, Action.SLOW),))
    report = Campaign(server, fleet,
                      RolloutPolicy(canary_fraction=0.12),
                      telemetry=telemetry).run()
    # Without telemetry this is two waves ([1, 8]); the persistent SLOW
    # breach halves the remainder again and again instead of stopping.
    assert not report.aborted and not report.paused
    assert len(report.updated) == 9
    assert [len(wave) for wave in report.waves] == [1, 4, 2, 1, 1]
    assert telemetry.breached


def test_telemetry_quarantine_prevents_failure_rate_abort():
    """Satellite regression (end to end): failed devices flagged as
    retry storms are quarantined by the telemetry plane *before* the
    abort math — neither the policy's failure-rate abort nor a
    failure-rate SLO double-counts them."""
    links = {5: dead_radio_link(), 6: dead_radio_link()}
    retry = RetryPolicy(
        max_attempts=2,
        transport_retry=TransportRetryPolicy(max_attempts=3))

    # Control: same fleet, no telemetry -> the two dead radios trip the
    # wave failure-rate abort.
    server, fleet = build_fleet(8, links)
    control = Campaign(server, fleet,
                       RolloutPolicy(canary_fraction=0.13,
                                     abort_failure_rate=0.25),
                       retry=retry).run()
    assert control.aborted
    assert len(control.failed) == 2

    # With the telemetry plane: the dead radios pile up interruptions,
    # get flagged as retry storms, and are re-filed as quarantined.
    server, fleet = build_fleet(8, links)
    telemetry = FleetTelemetry(slos=(
        SLO("failure-rate", "failure_rate", 0.25, Action.ABORT),))
    report = Campaign(server, fleet,
                      RolloutPolicy(canary_fraction=0.13,
                                    abort_failure_rate=0.25),
                      retry=retry, telemetry=telemetry).run()
    assert not report.aborted
    assert sorted(report.quarantined) == ["dev-05", "dev-06"]
    assert report.failed == []
    assert len(report.updated) == 6
    assert report.slo_breaches == []
    assert fleet[5].state is DeviceState.QUARANTINED
    # The telemetry samples agree with the campaign's bookkeeping.
    states = {s.name: s.state for s in telemetry.samples}
    assert states["dev-05"] == states["dev-06"] == "quarantined"
    anomaly_kinds = {(a["device"], a["kind"])
                     for a in telemetry.anomalies()}
    assert ("dev-05", "retry-storm") in anomaly_kinds

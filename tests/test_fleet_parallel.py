"""Wave executor tests, plus the seeded campaign the artifact tests reuse.

:func:`build_campaign` builds a bit-identical seeded fleet (optionally
with tampering devices and a custom policy); :func:`run_and_snapshot`
runs it and captures the report, device states, attempts and installed
versions for equality checks.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.core import (
    DeviceProfile,
    UpdateServer,
    VendorServer,
    make_test_identities,
    provision_device,
)
from repro.crypto import use_engine
from repro.fleet import (
    Campaign,
    DeviceRecord,
    RolloutPolicy,
    SerialWaveExecutor,
)
from repro.memory import MemoryLayout
from repro.net import ManifestTamperer
from repro.platform import NRF52840, ZEPHYR
from repro.sim import SimulatedDevice
from repro.workload import FirmwareGenerator
from tests.conftest import APP_ID, LINK_OFFSET

IMAGE_SIZE = 8 * 1024


def build_campaign(executor, count: int = 8,
                   flaky: Optional[Set[int]] = None,
                   policy: Optional[RolloutPolicy] = None) -> Campaign:
    """A deterministic fleet at v1 with v2 published."""
    flaky = flaky or set()
    generator = FirmwareGenerator(seed=b"fleet-parallel")
    fw_v1 = generator.firmware(IMAGE_SIZE, image_id=1)
    fw_v2 = generator.app_functionality_change(fw_v1, revision=2)
    vendor_id, server_id, anchors = make_test_identities()
    vendor = VendorServer(vendor_id, app_id=APP_ID,
                          link_offset=LINK_OFFSET)
    server = UpdateServer(server_id)
    server.publish(vendor.release(fw_v1, 1))

    fleet: List[DeviceRecord] = []
    for index in range(count):
        internal = NRF52840.make_internal_flash()
        layout = MemoryLayout.configuration_a(internal, 128 * 1024)
        profile = DeviceProfile(device_id=0x3000 + index, app_id=APP_ID,
                                link_offset=LINK_OFFSET)
        device = SimulatedDevice(
            board=NRF52840, os_profile=ZEPHYR, layout=layout,
            profile=profile, anchors=anchors,
        )
        provision_device(server, layout.get("a"), profile.device_id)
        fleet.append(DeviceRecord(
            name="dev-%02d" % index,
            device=device,
            transport="pull" if index % 2 else "push",
            interceptor=ManifestTamperer() if index in flaky else None,
        ))

    server.publish(vendor.release(fw_v2, 2))
    return Campaign(server, fleet,
                    policy or RolloutPolicy(canary_fraction=0.25),
                    executor=executor)


def run_and_snapshot(campaign: Campaign):
    with use_engine("fast"):
        report = campaign.run()
    return (
        report.to_dict(),
        {record.name: record.state for record in campaign.fleet},
        {record.name: record.attempts for record in campaign.fleet},
        {record.name: record.device.installed_version()
         for record in campaign.fleet},
    )


def test_default_executor_is_serial():
    campaign = build_campaign(None)
    assert isinstance(campaign.executor, SerialWaveExecutor)

"""Shared fixtures for the UpKit reproduction test suite."""

from __future__ import annotations

import random
from typing import Optional

import pytest

from repro.core import (
    DeviceProfile,
    TrustAnchors,
    UpdateServer,
    VendorServer,
    make_test_identities,
    provision_device,
)
from repro.crypto import get_backend
from repro.memory import FlashMemory, MemoryLayout
from repro.workload import FirmwareGenerator

#: Peak RSS one test may add to the test process, fixture setup
#: included.  Tier-1 has to finish on a 2-core / 8 GiB host, so a test
#: that needs more is a defect (a fleet-sized hydrated twin, say), not a
#: workload.  Memory of process-pool workers is not counted.
RSS_BUDGET_MIB = 2048

APP_ID = 0x55504B49
DEVICE_ID = 0x11223344
LINK_OFFSET = 0x8000


@pytest.fixture()
def identities():
    """(vendor_identity, server_identity, trust_anchors)."""
    return make_test_identities()


@pytest.fixture()
def anchors(identities) -> TrustAnchors:
    return identities[2]


@pytest.fixture()
def vendor(identities) -> VendorServer:
    return VendorServer(identities[0], app_id=APP_ID,
                        link_offset=LINK_OFFSET)


@pytest.fixture()
def server(identities) -> UpdateServer:
    return UpdateServer(identities[1])


@pytest.fixture()
def profile() -> DeviceProfile:
    return DeviceProfile(device_id=DEVICE_ID, app_id=APP_ID,
                         link_offset=LINK_OFFSET)


@pytest.fixture()
def backend():
    return get_backend("tinycrypt")


@pytest.fixture()
def flash() -> FlashMemory:
    return FlashMemory(256 * 1024, page_size=4096)


@pytest.fixture()
def ab_layout(flash) -> MemoryLayout:
    return MemoryLayout.configuration_a(flash, 128 * 1024)


@pytest.fixture()
def static_layout() -> MemoryLayout:
    internal = FlashMemory(320 * 1024, page_size=4096, name="internal")
    return MemoryLayout.configuration_b(internal, 128 * 1024)


@pytest.fixture()
def firmware_gen() -> FirmwareGenerator:
    return FirmwareGenerator(seed=b"test-suite")


@pytest.fixture()
def fw_v1(firmware_gen) -> bytes:
    return firmware_gen.firmware(24 * 1024, image_id=1)


@pytest.fixture()
def fw_v2(firmware_gen, fw_v1) -> bytes:
    return firmware_gen.os_version_change(fw_v1, revision=2)


@pytest.fixture()
def published(vendor, server, fw_v1):
    """Server with version 1 published; returns (vendor, server)."""
    server.publish(vendor.release(fw_v1, 1))
    return vendor, server


@pytest.fixture()
def provisioned(published, ab_layout):
    """(vendor, server, layout) with the factory image in slot A."""
    vendor_srv, update_srv = published
    provision_device(update_srv, ab_layout.get("a"), DEVICE_ID)
    return vendor_srv, update_srv, ab_layout


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


# -- memory guard ---------------------------------------------------------------

_RSS_START_KIB = pytest.StashKey[Optional[int]]()


def _status_kib(field: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field):
                return int(line.split()[1])
    raise KeyError(field)


def _reset_peak_rss() -> Optional[int]:
    """Reset the kernel's peak-RSS mark; returns current RSS in KiB.

    None where ``/proc/self/clear_refs`` is unavailable (not Linux):
    the guard then has no per-test peak to read and stays off.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return _status_kib("VmRSS:")
    except (OSError, KeyError):
        return None


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    item.stash[_RSS_START_KIB] = _reset_peak_rss()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    result = yield
    start = item.stash.get(_RSS_START_KIB, None)
    if start is not None:
        grown_mib = (_status_kib("VmHWM:") - start) / 1024
        if grown_mib > RSS_BUDGET_MIB:
            pytest.fail("peak RSS grew by %.0f MiB during this test, over "
                        "the %d MiB per-test budget"
                        % (grown_mib, RSS_BUDGET_MIB))
    return result

"""Shared fixtures for the UpKit reproduction test suite."""

from __future__ import annotations

import json
import os
import platform
import random
import time
from typing import Dict, Optional

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
#: workload.  Memory of child processes is not counted.
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


# -- tier-1 report ----------------------------------------------------------------

#: How many of the slowest tests the ``--tier1-report`` artifact names.
SLOWEST_TESTS = 10


def pytest_addoption(parser):
    parser.addoption(
        "--tier1-report", metavar="PATH", default=None,
        help="write the run's wall seconds, peak RSS (MiB) and the %d "
             "slowest tests as JSON to PATH" % SLOWEST_TESTS)


class _Tier1Report:
    """Wall time, peak RSS and per-test durations of one pytest run (a
    plugin registered by ``--tier1-report``).

    The memory guard above resets the kernel's peak-RSS mark before
    every test, so the run's peak is the largest mark read after any
    test phase, not the mark at exit.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.started = time.perf_counter()
        self.peak_kib = 0
        self.durations: Dict[str, float] = {}
        self.outcomes: Dict[str, int] = {}

    def note_peak(self) -> None:
        try:
            self.peak_kib = max(self.peak_kib, _status_kib("VmHWM:"))
        except (OSError, KeyError):
            pass

    def pytest_runtest_logreport(self, report) -> None:
        """One test phase (setup, call or teardown) finished."""
        self.note_peak()
        self.durations[report.nodeid] = (
            self.durations.get(report.nodeid, 0.0) + report.duration)
        if report.when == "call":
            outcome = report.outcome
        elif report.failed:
            outcome = "error"
        elif report.skipped:
            outcome = "skipped"
        else:
            return
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def pytest_sessionfinish(self, exitstatus: int) -> None:
        self.note_peak()
        slowest = sorted(self.durations.items(),
                         key=lambda item: (-item[1], item[0]))
        document = {
            "wall_seconds": round(time.perf_counter() - self.started, 2),
            "peak_rss_mib": round(self.peak_kib / 1024, 1),
            "exit_status": int(exitstatus),
            "outcomes": dict(sorted(self.outcomes.items())),
            "slowest": [{"test": nodeid, "seconds": round(seconds, 2)}
                        for nodeid, seconds in slowest[:SLOWEST_TESTS]],
            "host": {"python": platform.python_version(),
                     "machine": platform.machine(),
                     "cpus": os.cpu_count()},
        }
        with open(self.path, "w") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")


def pytest_configure(config):
    path = config.getoption("--tier1-report")
    if path:
        config.pluginmanager.register(_Tier1Report(path), "tier1-report")

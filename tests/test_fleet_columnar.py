"""Columnar campaign parity: ScaleCampaign must match Campaign bit-for-bit.

The columnar path (one numpy row per device, one hydrated cohort
representative per wave, event-driven retry timers) is only admissible
because it produces *byte-identical* reports to the hydrated
:class:`~repro.fleet.Campaign`.  These tests run the same seeded
scenarios — healthy rollout, flaky-link chaos with retries, a dead
radio that quarantines — through both flavours and require identity on
the full :class:`CampaignReport` dict and on every per-device entry.
Alongside: unit tests for the event scheduler, the columnar store, and
the vectorised slot-digest path.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.core import (
    DeviceProfile,
    UpdateServer,
    VendorServer,
    make_test_identities,
    provision_device,
)
from repro.crypto import use_engine
from repro.crypto.engine import get_engine
from repro.fleet import (
    Campaign,
    ColumnarFleet,
    DeviceRecord,
    DeviceSpec,
    DeviceState,
    EventScheduler,
    RetryPolicy,
    RolloutPolicy,
    ScaleCampaign,
    ScaleReport,
    SerialWaveExecutor,
)
from repro.fleet.columnar import ROW_DTYPE, STATE_CODES
from repro.memory import MemoryLayout
from repro.net import Link, Outage, TransportRetryPolicy
from repro.net.link import COAP_6LOWPAN
from repro.platform import NRF52840, ZEPHYR
from repro.sim import SimulatedDevice
from repro.workload import FirmwareGenerator
from tests.conftest import APP_ID, LINK_OFFSET

IMAGE_SIZE = 8 * 1024


# -- twin-campaign scaffolding ------------------------------------------------


def flaky_link(failures_per_outage: int = 3) -> Link:
    return Link(COAP_6LOWPAN, outages=(
        Outage(at_byte=512, failures=failures_per_outage),
        Outage(at_byte=3000, failures=failures_per_outage),
        Outage(at_byte=7000, failures=failures_per_outage),
    ))


def dead_link() -> Link:
    return Link(COAP_6LOWPAN, outages=(Outage(at_byte=0, failures=999),))


def _make_device(anchors, device_id: int) -> SimulatedDevice:
    internal = NRF52840.make_internal_flash()
    layout = MemoryLayout.configuration_a(internal, 128 * 1024)
    profile = DeviceProfile(device_id=device_id, app_id=APP_ID,
                            link_offset=LINK_OFFSET)
    return SimulatedDevice(board=NRF52840, os_profile=ZEPHYR,
                           layout=layout, profile=profile, anchors=anchors)


def build_twins(count: int, links=None):
    """The same seeded workload, hydrated and columnar.

    ``links`` maps device index -> Link *factory* (links are stateful:
    outage schedules consume themselves, so each flavour must get a
    fresh instance); linked devices are declared ``unique`` in the
    columnar fleet (their outage schedules make their outcomes diverge
    from the rest of their would-be cohort).

    Both flavours get their *own* servers so request logs, token
    nonces, and release state never cross-contaminate.
    """
    links = links or {}

    def build_servers():
        gen = FirmwareGenerator(seed=b"fleet-columnar")
        fw_v1 = gen.firmware(IMAGE_SIZE, image_id=1)
        fw_v2 = gen.app_functionality_change(fw_v1, revision=2)
        vendor_id, server_id, anchors = make_test_identities()
        vendor = VendorServer(vendor_id, app_id=APP_ID,
                              link_offset=LINK_OFFSET)
        return vendor, UpdateServer(server_id), anchors, fw_v1, fw_v2

    # Hydrated flavour: provision everyone up front, then publish v2.
    vendor, server, anchors, fw_v1, fw_v2 = build_servers()
    server.publish(vendor.release(fw_v1, 1))
    hydrated_fleet = []
    for index in range(count):
        device = _make_device(anchors, 0x3000 + index)
        provision_device(server, device.layout.get("a"),
                         device.profile.device_id)
        make_link = links.get(index)
        hydrated_fleet.append(DeviceRecord(
            name="dev-%02d" % index, device=device, transport="pull",
            link=make_link() if make_link else None))
    server.publish(vendor.release(fw_v2, 2))

    # Columnar flavour: identical releases, lazy provisioning against a
    # v1-only server view.
    vendor_c, server_c, anchors_c, fw_v1_c, fw_v2_c = build_servers()
    release_v1 = vendor_c.release(fw_v1_c, 1)
    server_c.publish(release_v1)
    _, server_id_c, _ = make_test_identities()
    provisioning = UpdateServer(server_id_c)
    provisioning.publish(release_v1)
    server_c.publish(vendor_c.release(fw_v2_c, 2))

    def spec_fn(index: int) -> DeviceSpec:
        return DeviceSpec(name="dev-%02d" % index,
                          device_id=0x3000 + index, transport="pull",
                          unique=index in links)

    def hydrator(spec: DeviceSpec) -> DeviceRecord:
        device = _make_device(anchors_c, spec.device_id)
        provision_device(provisioning, device.layout.get("a"),
                         spec.device_id)
        make_link = links.get(spec.device_id - 0x3000)
        return DeviceRecord(name=spec.name, device=device,
                            transport=spec.transport,
                            link=make_link() if make_link else None)

    columnar_fleet = ColumnarFleet(count, spec_fn, baseline_version=1)
    return (server, hydrated_fleet, anchors,
            server_c, columnar_fleet, hydrator, anchors_c)


def assert_parity(hydrated_report, hydrated_fleet, scale_report):
    """Full-report and per-device bit-for-bit identity."""
    assert (scale_report.to_campaign_report().to_dict()
            == hydrated_report.to_dict())
    for index, record in enumerate(hydrated_fleet):
        assert (scale_report.device_entry(index)
                == ScaleReport.record_entry(record)), record.name


def run_twins(count, links=None, policy=None, retry=None):
    (server, hydrated_fleet, anchors,
     server_c, columnar_fleet, hydrator, anchors_c) = build_twins(
        count, links=links)
    policy = policy or RolloutPolicy(canary_fraction=0.25,
                                     abort_failure_rate=1.0)
    hydrated_report = Campaign(server, hydrated_fleet, policy,
                               retry=retry).run()
    scale_report = ScaleCampaign(server_c, columnar_fleet, hydrator,
                                 policy, retry=retry,
                                 anchors=anchors_c).run()
    return hydrated_report, hydrated_fleet, scale_report


# -- parity: healthy / chaos / quarantine ------------------------------------


def test_healthy_run_byte_identical():
    hydrated_report, hydrated_fleet, scale_report = run_twins(8)
    assert len(hydrated_report.updated) == 8
    assert_parity(hydrated_report, hydrated_fleet, scale_report)
    # Lazy materialisation did its job: one cohort, two waves, so two
    # hydrations cover eight devices.
    assert scale_report.hydrations == 2


def test_chaos_run_with_retries_byte_identical():
    """The flaky-link acceptance scenario from test_fleet_retry, run
    through both flavours: same retries, same backoff accounting, same
    interruption counts, identical report."""
    retry = RetryPolicy(
        max_attempts=4,
        transport_retry=TransportRetryPolicy(max_attempts=3))
    hydrated_report, hydrated_fleet, scale_report = run_twins(
        4, links={1: flaky_link},
        policy=RolloutPolicy(canary_fraction=0.25,
                             abort_failure_rate=1.0),
        retry=retry)
    assert hydrated_report.failed == []
    assert "dev-01" in hydrated_report.updated
    assert hydrated_report.link_interruptions >= 1
    assert hydrated_report.retries >= 1
    assert_parity(hydrated_report, hydrated_fleet, scale_report)


def test_quarantine_path_byte_identical():
    """A dead radio quarantines identically in both flavours."""
    retry = RetryPolicy(
        max_attempts=2, quarantine_after=2,
        transport_retry=TransportRetryPolicy(max_attempts=2))
    hydrated_report, hydrated_fleet, scale_report = run_twins(
        4, links={0: dead_link},
        policy=RolloutPolicy(canary_fraction=0.25,
                             abort_failure_rate=0.5),
        retry=retry)
    assert hydrated_report.quarantined == ["dev-00"]
    assert not hydrated_report.aborted
    assert len(hydrated_report.updated) == 3
    assert_parity(hydrated_report, hydrated_fleet, scale_report)
    assert scale_report.count(DeviceState.QUARANTINED) == 1


def test_columnar_campaign_is_deterministic():
    def run():
        _, _, scale_report = run_twins(4, links={1: flaky_link},
                                       retry=RetryPolicy(
            max_attempts=4,
            transport_retry=TransportRetryPolicy(max_attempts=3)))
        return scale_report.to_campaign_report().to_dict()

    assert run() == run()


def test_parity_under_fast_engine():
    """The batched content-cache verify path changes no output byte."""
    with use_engine("fast") as engine:
        engine.clear_caches()
        hydrated_report, hydrated_fleet, scale_report = run_twins(6)
        assert_parity(hydrated_report, hydrated_fleet, scale_report)
        # The vendor signature was verified through the content cache:
        # one miss (first wave), then a hit per later wave.
        stats = engine.content_cache.stats_snapshot()
    assert stats.misses == 1
    assert stats.hits == len(scale_report.wave_indices) - 1


# -- batched digest path ------------------------------------------------------


def test_digest_matches_agrees_with_per_device_engine_hash():
    """The vectorised column compare is bit-for-bit the per-device
    engine.sha256-and-compare loop."""
    _, _, scale_report = run_twins(6)
    fleet = scale_report.fleet
    gen = FirmwareGenerator(seed=b"fleet-columnar")
    fw_v1 = gen.firmware(IMAGE_SIZE, image_id=1)
    fw_v2 = gen.app_functionality_change(fw_v1, revision=2)
    target_digest = get_engine().sha256(fw_v2)
    mask = fleet.digest_matches(target_digest)
    for index in range(fleet.count):
        row_digest = bytes(fleet.rows["slot_digest"][index])
        assert bool(mask[index]) == (row_digest == target_digest)
    # Everyone updated, so every row carries the target digest.
    assert bool(mask.all())
    assert not fleet.digest_matches(get_engine().sha256(fw_v1)).any()


def test_digest_helpers_validate_and_stamp():
    fleet = ColumnarFleet.uniform(4, device_id_base=0x100)
    with pytest.raises(ValueError):
        fleet.digest_matches(b"short")
    digest = bytes(range(32))
    fleet.stamp_digest(np.array([1, 3]), digest)
    mask = fleet.digest_matches(digest)
    assert mask.tolist() == [False, True, False, True]


# -- scheduler unit tests -----------------------------------------------------


def test_scheduler_orders_by_time_then_sequence():
    fired = []
    scheduler = EventScheduler()
    scheduler.at(2.0, "b")
    scheduler.at(1.0, "a")
    scheduler.at(2.0, "c")  # same time: insertion order breaks the tie
    scheduler.run(lambda event: fired.append((event.time, event.kind)))
    assert fired == [(1.0, "a"), (2.0, "b"), (2.0, "c")]
    assert scheduler.processed == 3


def test_scheduler_time_is_monotonic():
    scheduler = EventScheduler()
    scheduler.at(5.0, "later")
    scheduler.pop()
    assert scheduler.now == 5.0
    with pytest.raises(ValueError):
        scheduler.at(4.0, "past")


def test_scheduler_handlers_can_reschedule():
    """Run-to-quiescence: handlers enqueue follow-ups mid-run."""
    scheduler = EventScheduler()
    fired = []

    def handle(event):
        fired.append(event.kind)
        if event.kind == "first":
            scheduler.after(1.0, "second")

    scheduler.at(0.0, "first")
    scheduler.run(handle)
    assert fired == ["first", "second"]
    assert scheduler.now == 1.0


# -- columnar store unit tests ------------------------------------------------


def test_row_dtype_is_compact():
    """The memory claim the bench artifact records: ~100 B per device,
    about 440x under the ~38 KB a hydrated device holds."""
    assert ROW_DTYPE.itemsize <= 128
    fleet = ColumnarFleet.uniform(1000, device_id_base=0x100)
    assert fleet.nbytes() == 1000 * ROW_DTYPE.itemsize
    assert fleet.bytes_per_row == ROW_DTYPE.itemsize


def test_uniform_fleet_cohorts_by_transport():
    fleet = ColumnarFleet.uniform(10, device_id_base=0x100,
                                  transports=("push", "pull"))
    assert fleet.cohort_count == 2
    assert fleet.name(3) == "dev-000003"
    assert fleet.spec(4).device_id == 0x104
    # Representatives are the first member of each cohort in row order.
    assert sorted(fleet.cohort_representative.values()) == [0, 1]


def test_unique_devices_get_their_own_cohort():
    def spec_fn(index):
        return DeviceSpec(name="d%d" % index, device_id=index,
                          transport="pull", unique=index == 2)

    fleet = ColumnarFleet(4, spec_fn)
    assert fleet.cohort_count == 2
    assert int(fleet.rows["cohort"][2]) not in (
        int(fleet.rows["cohort"][0]), int(fleet.rows["cohort"][1]))


def test_state_bookkeeping_and_validation():
    fleet = ColumnarFleet.uniform(5, device_id_base=0x100)
    assert fleet.pending_indices().tolist() == [0, 1, 2, 3, 4]
    fleet.set_states(np.array([1, 3]), DeviceState.UPDATED)
    assert fleet.count_state(DeviceState.UPDATED) == 2
    assert fleet.pending_indices().tolist() == [0, 2, 4]
    assert fleet.state_of(1) is DeviceState.UPDATED
    assert (fleet.indices_in_state(DeviceState.UPDATED).tolist()
            == [1, 3])
    with pytest.raises(ValueError):
        ColumnarFleet(0, lambda i: DeviceSpec(name="x", device_id=1))
    with pytest.raises(ValueError):
        ColumnarFleet(1, lambda i: DeviceSpec(name="x", device_id=1),
                      baseline_digest=b"not 32 bytes")


def test_state_codes_are_stable():
    """Codes are persisted in bench artifacts; renumbering is a break."""
    assert {state.value: code for state, code in STATE_CODES.items()} \
        == {"pending": 0, "updated": 1, "failed": 2, "skipped": 3,
            "quarantined": 4}


def test_scale_campaign_requires_a_pending_device():
    (server, _, _, server_c, columnar_fleet, hydrator,
     anchors_c) = build_twins(2)
    columnar_fleet.set_states(np.array([0, 1]), DeviceState.UPDATED)
    campaign = ScaleCampaign(server_c, columnar_fleet, hydrator)
    with pytest.raises(ValueError):
        campaign.run()


def test_scale_report_survives_json_round_trip():
    import json

    _, _, scale_report = run_twins(4)
    payload = json.loads(json.dumps(scale_report.summary()))
    assert payload["updated"] == 4
    assert payload["columnar_bytes_per_row"] == ROW_DTYPE.itemsize
    assert payload["hydrations"] == scale_report.hydrations

"""Frame runs against a per-frame reference driver.

The transports stream an update to the simulated device in *runs*: a
block of consecutive whole radio frames goes out as one link transfer
and one device feed, cut wherever something observes single frames (the
link's fault schedule, the agent's FSM transitions, reboot marks, armed
power-loss countdowns, interceptors, an enabled tracer).  A run must
cost exactly what its frames cost one by one.  ``per_frame_stream``
below is the streaming loop the runs replaced — one transfer, one radio
charge and one feed per MTU frame — kept here as the reference; every
scenario runs once with each driver on identical testbeds and compares
what the device, the link and the agent end up with.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import pytest

from repro.core import DeviceToken, FeedStatus, UpdateError
from repro.core.image import ENVELOPE_SIZE
from repro.crypto import use_engine
from repro.faults import DeviceRebooted, FaultKind, FaultPoint
from repro.net import (
    BLE_GATT,
    COAP_6LOWPAN,
    Link,
    LossBurst,
    ManifestTamperer,
    Outage,
    PayloadBitFlipper,
    PullTransport,
    PushTransport,
    Slowdown,
    TransportRetryPolicy,
    TruncatingProxy,
)
from repro.net.transports import _TransportBase
from repro.sim import Testbed
from repro.tools.chaos import ChaosLab, run_point
from repro.workload import FirmwareGenerator

#: Past two 4 KiB flash sectors, so a run fills several sector buffers.
IMAGE_SIZE = 10 * 1024
RETRY = TransportRetryPolicy(max_attempts=6, backoff_initial=0.5)
#: Link bytes ahead of the envelope: the token exchange (push), plus the
#: announcement poll (pull).
TOKEN_BYTES = len(DeviceToken(device_id=1, nonce=1,
                              current_version=1).pack())


@pytest.fixture(autouse=True)
def fast_crypto():
    """Streaming is what differs here; the engines model identical costs."""
    with use_engine("fast"):
        yield


def per_frame_stream(self, data: bytes,
                     label: str = "payload") -> FeedStatus:
    """Reference driver: one transfer and one feed per MTU frame."""
    status = FeedStatus.NEED_MORE
    mtu = self.link.profile.mtu
    offset = 0
    with self.tracer.span("transfer.%s" % label,
                          category="propagation", nbytes=len(data)):
        while offset < len(data):
            chunk = data[offset:offset + mtu]
            with self.tracer.span("block", category="transfer",
                                  offset=offset, nbytes=len(chunk)):
                report = self._transfer(len(chunk))
                self.device.account_radio(report.seconds,
                                          self.direction_payload)
                self.bytes_over_air += len(chunk)
                status = self.device.feed(chunk)
            offset += len(chunk)
    return status


def use_reference(monkeypatch) -> None:
    monkeypatch.setattr(_TransportBase, "_stream_to_device",
                        per_frame_stream)


# -- state capture ----------------------------------------------------------------


def count_feeds(device) -> list:
    """Counts ``device.feed`` calls (instance wrapper)."""
    calls = []
    original = device.feed

    def feed(data):
        calls.append(len(data))
        return original(data)

    device.feed = feed
    return calls


def capture(device, link, outcomes) -> dict:
    """Everything a run must reproduce, split into exact and float parts."""
    agent = device.agent
    exact = {
        "outcomes": [(o.success, type(o.error).__name__, str(o.error),
                      o.bytes_over_air, o.interruptions, o.booted_version,
                      o.rebooted) for o in outcomes],
        "link": (link.total_packets, link.total_retransmissions,
                 link.total_bytes, link.down_events) if link else None,
        "agent_stats": asdict(agent.stats),
        "events": [(e.source, e.kind, sorted(e.detail.items()))
                   for e in agent.events.all()],
        "fed_bytes": device.fed_bytes,
        "flash": [(flash.snapshot(), flash.stats.bytes_read,
                   flash.stats.bytes_written, flash.stats.pages_erased,
                   flash.stats.write_calls,
                   list(flash.stats.erase_counts))
                  for flash in device.flash_devices],
        "slots": {slot.name: slot.flash.peek(slot.offset, slot.size)
                  for slot in device.layout.slots},
        "meter_components": sorted(device.meter.breakdown_mj()),
    }
    approx = {
        "phases": [o.phases for o in outcomes],
        "energy": [o.energy_mj for o in outcomes],
        "total_seconds": [o.total_seconds for o in outcomes],
        "clock": device.clock.now,
        "meter": device.meter.breakdown_mj(),
    }
    return {"exact": exact, "approx": approx}


def assert_close(left, right, path="") -> None:
    if isinstance(left, dict):
        assert sorted(left) == sorted(right), path
        for key in left:
            assert_close(left[key], right[key], "%s.%s" % (path, key))
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), path
        for index, (a, b) in enumerate(zip(left, right)):
            assert_close(a, b, "%s[%d]" % (path, index))
    else:
        assert math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12), \
            "%s: %r != %r" % (path, left, right)


def assert_equivalent(runs: dict, frames: dict) -> None:
    assert runs["exact"] == frames["exact"]
    assert_close(runs["approx"], frames["approx"])


# -- testbeds ---------------------------------------------------------------------


_FIRMWARE = {}


def firmware_pair():
    if not _FIRMWARE:
        gen = FirmwareGenerator(seed=b"frame-runs")
        v1 = gen.firmware(IMAGE_SIZE, image_id=1)
        _FIRMWARE["pair"] = (v1, gen.os_version_change(v1, revision=2))
    return _FIRMWARE["pair"]


def make_bed(layout: str, delta: bool) -> Testbed:
    v1, v2 = firmware_pair()
    bed = Testbed.create(slot_configuration=layout, slot_size=32 * 1024,
                         initial_firmware=v1,
                         supports_differential=delta)
    bed.release(v2, 2)
    return bed


def transport_cls(kind: str):
    return PushTransport if kind == "push" else PullTransport


def profile_of(kind: str):
    return BLE_GATT if kind == "push" else COAP_6LOWPAN


def stream_base(kind: str) -> int:
    """Link bytes delivered before the first envelope frame."""
    return TOKEN_BYTES + (16 if kind == "pull" else 0)


def run_scenario(kind: str, layout: str = "a", delta: bool = False,
                 loss: float = 0.0, attempts: int = 1, retry=RETRY,
                 interceptor=None, tracer: bool = False, **schedule):
    """Run ``attempts`` updates over one link; returns (capture, feeds)."""
    bed = make_bed(layout, delta)
    device = bed.device
    device.tracer.enabled = tracer
    link = Link(profile_of(kind), loss_rate=loss, seed=11, **schedule)
    feeds = count_feeds(device)
    outcomes = []
    for _ in range(attempts):
        transport = transport_cls(kind)(device, bed.server, link=link,
                                        interceptor=interceptor,
                                        retry=retry)
        outcomes.append(transport.run_update())
    state = capture(device, link, outcomes)
    if tracer:
        state["exact"]["trace"] = [
            (event["name"], event["ph"],
             {k: v for k, v in event.get("args", {}).items()
              if k not in ("span_id", "parent_id")})
            for event in device.tracer.to_chrome_trace()["traceEvents"]]
    return state, feeds


def both(monkeypatch, **scenario):
    """(runs capture, frames capture, runs feeds, frames feeds)."""
    runs, run_feeds = run_scenario(**scenario)
    use_reference(monkeypatch)
    frames, frame_feeds = run_scenario(**scenario)
    monkeypatch.undo()
    return runs, frames, run_feeds, frame_feeds


# -- the grid: push/pull x full/delta x A/B/static-swap x loss ---------------------


@pytest.mark.parametrize("loss", [0.0, 0.2])
@pytest.mark.parametrize("layout", ["a", "b"])
@pytest.mark.parametrize("delta", [False, True])
@pytest.mark.parametrize("kind", ["push", "pull"])
def test_runs_match_frames_on_the_grid(monkeypatch, kind, delta, layout,
                                       loss):
    runs, frames, run_feeds, frame_feeds = both(
        monkeypatch, kind=kind, delta=delta, layout=layout, loss=loss)
    assert_equivalent(runs, frames)
    assert runs["exact"]["outcomes"][0][0] is True
    assert sum(run_feeds) == sum(frame_feeds)
    # Envelope and payload each stream as one run plus the lone frame
    # that completes them.
    assert len(run_feeds) == 4 < len(frame_feeds)


# -- link schedule thresholds, mid-frame and on frame edges --------------------------


def thresholds(kind: str):
    """Stream offsets for thresholds: inside the envelope, at its end,
    and inside the payload, each on a frame edge and mid-frame."""
    mtu = profile_of(kind).mtu
    base = stream_base(kind)
    points = {"envelope_edge": base + 3 * mtu,
              "envelope_mid": base + 3 * mtu + mtu // 2,
              "envelope_end": base + ENVELOPE_SIZE,
              "payload_edge": base + ENVELOPE_SIZE + 17 * mtu,
              "payload_mid": base + ENVELOPE_SIZE + 17 * mtu + 1}
    return points


SCHEDULES = ["outage", "outage_x3", "twin_outages", "burst", "slowdown",
             "mixed"]


def schedule_for(name: str, at: int, mtu: int) -> dict:
    if name == "outage":
        return {"outages": [Outage(at_byte=at)]}
    if name == "outage_x3":
        return {"outages": [Outage(at_byte=at, failures=3)]}
    if name == "twin_outages":
        return {"outages": [Outage(at_byte=at), Outage(at_byte=at),
                            Outage(at_byte=at + 5 * mtu + 3)]}
    if name == "burst":
        return {"loss_bursts": [LossBurst(start_byte=at,
                                          end_byte=at + 7 * mtu + 5,
                                          loss_rate=0.6)]}
    if name == "slowdown":
        return {"slowdowns": [Slowdown(at_byte=at, factor=3.0)]}
    return {"outages": [Outage(at_byte=at + 2 * mtu, failures=2)],
            "loss_bursts": [LossBurst(start_byte=at, end_byte=at + mtu,
                                      loss_rate=0.5),
                            LossBurst(start_byte=at + 4 * mtu - 1,
                                      end_byte=at + 9 * mtu,
                                      loss_rate=0.3)],
            "slowdowns": [Slowdown(at_byte=at + mtu + 1, factor=2.0),
                          Slowdown(at_byte=at + 6 * mtu, factor=4.0)]}


@pytest.mark.parametrize("where", ["envelope_edge", "envelope_mid",
                                   "envelope_end", "payload_edge",
                                   "payload_mid"])
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("kind", ["push", "pull"])
def test_runs_match_frames_across_schedule_thresholds(monkeypatch, kind,
                                                      schedule, where):
    at = thresholds(kind)[where]
    scenario = dict(kind=kind, layout="b" if kind == "push" else "a",
                    delta=where.startswith("payload"), loss=0.1,
                    **schedule_for(schedule, at, profile_of(kind).mtu))
    runs, frames, run_feeds, frame_feeds = both(monkeypatch, **scenario)
    assert_equivalent(runs, frames)
    assert runs["exact"]["outcomes"][0][0] is True
    assert len(run_feeds) < len(frame_feeds)


def test_threshold_before_the_stream_is_already_passed(monkeypatch):
    # Thresholds behind the link's byte count change nothing any more.
    runs, frames, run_feeds, _ = both(
        monkeypatch, kind="pull", loss=0.2,
        loss_bursts=[LossBurst(start_byte=0, end_byte=10, loss_rate=0.9)],
        slowdowns=[Slowdown(at_byte=0, factor=2.0)])
    assert_equivalent(runs, frames)
    assert len(run_feeds) == 4


# -- multi-attempt resumes and abandonment ------------------------------------------


@pytest.mark.parametrize("kind", ["push", "pull"])
def test_abandoned_attempt_then_resumed_attempt(monkeypatch, kind):
    at = thresholds(kind)["payload_mid"]
    runs, frames, _, _ = both(
        monkeypatch, kind=kind, layout="b", loss=0.2, attempts=2,
        retry=TransportRetryPolicy(max_attempts=3, backoff_initial=0.25),
        outages=[Outage(at_byte=at, failures=4),
                 Outage(at_byte=at + 900, failures=1)])
    assert_equivalent(runs, frames)
    first, second = runs["exact"]["outcomes"]
    assert (first[0], first[1]) == (False, "TransferAbandoned")
    assert second[0] is True


@pytest.mark.parametrize("kind", ["push", "pull"])
def test_outage_without_retry_policy_fails_alike(monkeypatch, kind):
    at = thresholds(kind)["envelope_mid"]
    runs, frames, _, _ = both(monkeypatch, kind=kind, retry=None,
                              outages=[Outage(at_byte=at)])
    assert_equivalent(runs, frames)
    assert runs["exact"]["outcomes"][0][:2] == (False, "TransferAbandoned")


# -- interceptors: truncate, extend, tamper -----------------------------------------


def extend(envelope, payload):
    return envelope, payload + b"\x00" * 100


def extend_envelope(envelope, payload):
    return envelope + b"\x11" * 7, payload


#: Factories, so each driver meets a fresh interceptor (the bit flipper
#: draws its flip positions from its own RNG).
INTERCEPTORS = {
    "truncate": lambda: TruncatingProxy(keep_fraction=0.5),
    "extend_payload": lambda: extend,
    "extend_envelope": lambda: extend_envelope,
    "tamper_manifest": ManifestTamperer,
    "tamper_payload": lambda: PayloadBitFlipper(flips=4),
}


@pytest.mark.parametrize("name", sorted(INTERCEPTORS))
@pytest.mark.parametrize("kind", ["push", "pull"])
def test_interceptors_fail_on_the_same_frame(monkeypatch, kind, name):
    runs = run_scenario(kind=kind, delta=True,
                        interceptor=INTERCEPTORS[name]())[0]
    use_reference(monkeypatch)
    frames = run_scenario(kind=kind, delta=True,
                          interceptor=INTERCEPTORS[name]())[0]
    assert_equivalent(runs, frames)
    assert runs["exact"]["outcomes"][0][0] is False


# -- FSM transitions: one stream carrying envelope and payload --------------------


BLOBS = {
    "valid": lambda envelope, payload: envelope + payload,
    "bad_manifest": lambda envelope, payload:
        bytes([envelope[0] ^ 0xFF]) + envelope[1:] + payload,
    "oversized": lambda envelope, payload: envelope + payload + bytes(100),
    "short": lambda envelope, payload: envelope + payload[:-45],
    "payload_prefix": lambda envelope, payload: envelope + payload[:3],
}


def stream_blob(kind: str, delta: bool, blob_of) -> dict:
    """Stream a whole image as one blob: only the agent's FSM cuts sit
    between envelope and payload bytes."""
    bed = make_bed("a", delta)
    device = bed.device
    link = Link(profile_of(kind), loss_rate=0.2, seed=5)
    transport = transport_cls(kind)(device, bed.server, link=link,
                                    retry=RETRY)
    token = device.request_token()
    image = bed.server.prepare_update(token)
    status = error = None
    try:
        status = transport._stream_to_device(
            blob_of(image.envelope.pack(), image.payload))
    except UpdateError as exc:
        error = (type(exc).__name__, str(exc))
    state = capture(device, link, [])
    state["exact"]["stream"] = (status, error, transport.bytes_over_air)
    return state


@pytest.mark.parametrize("blob", sorted(BLOBS))
@pytest.mark.parametrize("delta", [False, True])
@pytest.mark.parametrize("kind", ["push", "pull"])
def test_fsm_transitions_cut_runs(monkeypatch, kind, delta, blob):
    runs = stream_blob(kind, delta, BLOBS[blob])
    use_reference(monkeypatch)
    frames = stream_blob(kind, delta, BLOBS[blob])
    assert_equivalent(runs, frames)
    error = runs["exact"]["stream"][1]
    assert (error is None) == (blob in ("valid", "short", "payload_prefix"))


# -- tracer: one block span per frame, as before ------------------------------------


@pytest.mark.parametrize("kind", ["push", "pull"])
def test_traced_update_keeps_one_block_span_per_frame(monkeypatch, kind):
    at = thresholds(kind)["payload_mid"]
    runs, frames, run_feeds, frame_feeds = both(
        monkeypatch, kind=kind, delta=True, loss=0.1, tracer=True,
        outages=[Outage(at_byte=at, failures=2)])
    assert_equivalent(runs, frames)
    assert run_feeds == frame_feeds
    blocks = [event for event in runs["exact"]["trace"]
              if event[0] == "block"]
    assert len(blocks) == len(frame_feeds)


# -- device faults: reboot marks and power loss (the chaos runner) -------------------


def chaos_point(monkeypatch, kind: str, layout: str, point: FaultPoint,
                reference: bool):
    if reference:
        use_reference(monkeypatch)
    lab = ChaosLab(image_size=IMAGE_SIZE, slot_configuration=layout,
                   transport=kind, seed=3)
    beds = []
    build = lab.build

    def capture_build():
        beds.append(build())
        return beds[-1]

    lab.build = capture_build
    result = run_point(lab, point)
    state = capture(beds[0].device, None, [])
    state["exact"]["result"] = (result.status, result.final_version,
                                result.power_cycles, result.interruptions,
                                result.abandoned, result.error)
    monkeypatch.undo()
    return state


def fault_points(kind: str):
    mtu = profile_of(kind).mtu
    fed = [0, 1, mtu, 5 * mtu + 3, ENVELOPE_SIZE - 1, ENVELOPE_SIZE,
           ENVELOPE_SIZE + 1, ENVELOPE_SIZE + 40 * mtu,
           ENVELOPE_SIZE + 40 * mtu + mtu // 2]
    points = [FaultPoint(FaultKind.REBOOT, at) for at in fed]
    points += [FaultPoint(kind_, at)
               for kind_ in (FaultKind.POWER_LOSS_WRITE,
                             FaultKind.POWER_LOSS_ERASE,
                             FaultKind.POWER_LOSS_ANY)
               for at in (0, 1, 2, 3, 5, 9, 14, 20)]
    points += [FaultPoint(FaultKind.LINK_OUTAGE,
                          stream_base(kind) + ENVELOPE_SIZE + 3 * mtu, 2),
               FaultPoint(FaultKind.LOSS_BURST,
                          stream_base(kind) + 7 * mtu + 1, 300),
               FaultPoint(FaultKind.SLOW_LINK, 900, 3),
               FaultPoint(FaultKind.SERVER_OUTAGE, 0, 2)]
    return points


@pytest.mark.parametrize("layout", ["a", "b"])
@pytest.mark.parametrize("kind", ["push", "pull"])
def test_fault_points_replay_identically(monkeypatch, kind, layout):
    for point in fault_points(kind):
        runs = chaos_point(monkeypatch, kind, layout, point, False)
        frames = chaos_point(monkeypatch, kind, layout, point, True)
        assert runs["exact"] == frames["exact"], point
        assert_close(runs["approx"], frames["approx"], str(point))
        assert runs["exact"]["result"][0] != "bricked"


def test_reboot_mark_fires_after_the_crossing_frame(monkeypatch):
    # Two marks inside one frame: the first fires after that frame, the
    # second after the next feed, as with one feed per frame.
    mtu = BLE_GATT.mtu
    for reference in (False, True):
        bed = make_bed("b", False)
        device = bed.device
        if reference:
            use_reference(monkeypatch)
        device.add_reboot_mark(3 * mtu + 2)
        device.add_reboot_mark(3 * mtu + 5)
        with pytest.raises(DeviceRebooted):
            PushTransport(device, bed.server).run_update()
        assert device.fed_bytes == 4 * mtu
        monkeypatch.undo()

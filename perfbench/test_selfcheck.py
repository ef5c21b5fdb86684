"""Self-checks of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import contextvars
import dataclasses
import itertools
from concurrent.futures import ThreadPoolExecutor

from perfbench import ensure_src

ensure_src()

from perfbench.checks import PullChecker  # noqa: E402
from perfbench.common import block_figures, device_ids, firmware_pair  # noqa: E402,E501
from perfbench.loadgen import (CoapClient, HttpClient, RadioModel,  # noqa: E402
                               Session)
from perfbench.rollout import BLOCK_DEVICES, DEVICES, kind  # noqa: E402
from perfbench.serve_child import UdpShim, build_service  # noqa: E402
from perfbench.spans import SpanRecorder, aggregate, self_times  # noqa: E402


# -- spans ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    spans = [
        (1, None, "root", 0.0, 10.0),
        (2, 1, "a", 1.0, 3.0),
        (3, 1, "b", 2.0, 5.0),       # overlaps a: union is [1, 5]
        (4, 1, "c", 8.0, 12.0),      # clipped to [8, 10]
        (5, 2, "grandchild", 1.5, 2.5),
    ]
    selfs = self_times(spans)
    assert selfs[1] == 10.0 - 4.0 - 2.0
    assert selfs[2] == 2.0 - 1.0
    assert selfs[3] == 3.0 and selfs[5] == 1.0
    table = aggregate(spans)
    assert table["root"]["root_s"] == 10.0
    assert table["a"]["root_s"] == 0.0
    assert table["c"] == {"calls": 1, "total_s": 4.0, "self_s": 4.0,
                          "root_s": 0.0}


class _Layer:
    def outer(self, recorder_check):
        return self.inner() + recorder_check()

    def inner(self):
        return 1

    async def wait(self, delay):
        await asyncio.sleep(delay)
        return self.inner()


def _parents(recorder: SpanRecorder):
    by_id = {span[0]: span for span in recorder.spans}
    return [(span[2], by_id[span[1]][2] if span[1] else None)
            for span in recorder.spans]


def test_wrappers_nest_by_context_and_uninstall_cleanly():
    ticks = itertools.count()
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    original = _Layer.__dict__["inner"]
    for name in ("outer", "inner", "wait"):
        recorder.wrap(_Layer, name, name)
    try:
        assert _Layer().outer(lambda: 1) == 2

        async def two_tasks():
            return await asyncio.gather(_Layer().wait(0.02),
                                        _Layer().wait(0.01))

        asyncio.run(two_tasks())
    finally:
        recorder.uninstall()
    assert _Layer.__dict__["inner"] is original
    names = _parents(recorder)
    assert names.count(("inner", "outer")) == 1
    assert names.count(("inner", "wait")) == 2
    assert names.count(("wait", None)) == 2
    assert ("outer", None) in names


def test_spans_follow_a_copied_context_into_a_thread():
    """Work handed to a thread under a copied context nests under the
    span that submitted it (what the serve plane's signer pool does)."""
    recorder = SpanRecorder()
    recorder.wrap(_Layer, "outer", "outer")
    recorder.wrap(_Layer, "inner", "inner")
    try:
        with ThreadPoolExecutor(1) as pool:
            def hop():
                ctx = contextvars.copy_context()
                return pool.submit(ctx.run, _Layer().inner).result()

            assert _Layer().outer(hop) == 2
    finally:
        recorder.uninstall()
    assert _parents(recorder).count(("inner", "outer")) == 2


def test_an_inherited_method_is_restored_by_removing_the_override():
    class Child(_Layer):
        pass

    recorder = SpanRecorder()
    recorder.wrap(Child, "inner", "inner")
    assert "inner" in Child.__dict__
    recorder.uninstall()
    assert "inner" not in Child.__dict__


def test_block_figures_are_medians_over_blocks():
    blocks = [(1.0, 0.5, [0.010] * 10), (1.0, 0.5, [0.010] * 10),
              (2.0, 2.0, [0.100] * 10)]       # one slow block
    figures = block_figures(blocks)
    assert figures["updates_per_s"] == 10.0
    assert abs(figures["update_p90_ms"] - 10.0) < 1e-9
    assert abs(figures["cpu_ms_per_update"] - 50.0) < 1e-9


# -- the checker ----------------------------------------------------------------


def _prepared_session(firmware: bytes, device_id: int, nonce: int) -> Session:
    """A session built from a real double-signed envelope."""
    from hashlib import sha256

    from repro.core import (DeviceToken, UpdateServer, VendorServer,
                            make_test_identities)
    from repro.core.token import NO_DIFF_SUPPORT

    vendor_id, server_id, _anchors = make_test_identities()
    server = UpdateServer(server_id)
    server.publish(VendorServer(vendor_id, app_id=0x55504B49,
                                link_offset=0x8000).release(firmware, 2))
    image = server.prepare_update(DeviceToken(
        device_id=device_id, nonce=nonce, current_version=NO_DIFF_SUPPORT))
    digest = sha256(image.payload).hexdigest()
    return Session(device_id=device_id, token="%08x%08x" % (device_id, nonce),
                   nonce=nonce, version=2,
                   envelope=image.envelope.pack().hex(),
                   manifest_sha256=digest, payload_size=len(firmware),
                   received_sha256=digest, received_size=len(firmware),
                   reported=True)


def test_checker_passes_a_good_session_and_flags_a_flipped_payload_byte():
    from hashlib import sha256

    from repro.crypto import use_engine

    _v1, v2 = firmware_pair(7, 4096)
    with use_engine("fast"):
        good = _prepared_session(v2, 11, 1)
        checker = PullChecker(v2)
        verifier = checker.verifier()
        assert checker.check_session(good) == []
        assert checker.check_envelope(good, verifier) == []

        flipped = bytearray(v2)
        flipped[100] ^= 0x01
        bad = _prepared_session(v2, 12, 1)
        bad.received_sha256 = sha256(bytes(flipped)).hexdigest()
        assert any("payload" in p for p in checker.check_session(bad))

        tampered = _prepared_session(v2, 13, 1)
        raw = bytearray(bytes.fromhex(tampered.envelope))
        raw[40] ^= 0x01
        tampered.envelope = bytes(raw).hex()
        assert checker.check_envelope(tampered, verifier)
    assert checker.counts == {"payloads": 2, "tokens": 2, "envelopes": 2}


def test_checker_flags_a_reused_token_and_a_reused_device_nonce_pair():
    _v1, v2 = firmware_pair(7, 4096)
    checker = PullChecker(v2)
    first = Session(device_id=5, token="aa", nonce=1, version=2,
                    manifest_sha256=checker.firmware_sha256,
                    received_sha256=checker.firmware_sha256,
                    received_size=len(v2), reported=True)
    assert checker.check_session(first) == []
    assert "token reused" in checker.check_session(
        dataclasses.replace(first, device_id=6))
    assert "(device, nonce) pair reused" in checker.check_session(
        dataclasses.replace(first, token="bb"))


# -- the load generator against an in-process server ----------------------------


async def _one_session(face: str, seed: int, image_size: int, chunk: int):
    """One device session over loopback; returns it and its window."""
    from repro.crypto import use_engine
    from repro.serve import CoapFront, HttpServer

    with use_engine("fast"):
        service = build_service(seed, image_size, chunk)
    radio = RadioModel()
    device_id = next(device_ids(seed))
    if face == "http":
        async with HttpServer(service, port=0) as server:
            client = HttpClient(server.port, radio)
            await client.connect()
            try:
                session = await client.session(device_id, chunk)
            finally:
                await client.close()
        return session, client.window
    loop = asyncio.get_running_loop()
    transport, _shim = await loop.create_datagram_endpoint(
        lambda: UdpShim(CoapFront(service)), local_addr=("127.0.0.1", 0))
    client = await CoapClient.open(transport.get_extra_info("sockname")[1],
                                   radio, chunk)
    try:
        session = await client.session(device_id, chunk)
    finally:
        await client.close()
        transport.close()
    return session, client.window


def _passes(session: Session, seed: int, image_size: int) -> bool:
    from repro.crypto import use_engine

    _v1, v2 = firmware_pair(seed, image_size)
    checker = PullChecker(v2)
    with use_engine("fast"):
        return not (checker.check_session(session)
                    or checker.check_envelope(session, checker.verifier()))


def test_the_udp_shim_completes_one_session():
    session, window = asyncio.run(_one_session("coap", 3, 8192, 1024))
    assert _passes(session, 3, 8192)
    assert window.retransmits == 0
    assert len(window.samples["chunk"]) == -(-session.payload_size // 1024)


def test_a_seed_changes_inputs_but_not_the_request_mix():
    assert firmware_pair(1, 8192) != firmware_pair(2, 8192)
    ids = [list(itertools.islice(device_ids(seed), 50)) for seed in (1, 2)]
    assert ids[0] != ids[1] and len(set(ids[0])) == 50
    mixes = []
    for seed in (1, 2):
        session, window = asyncio.run(_one_session("http", seed, 8192,
                                                   2048))
        assert _passes(session, seed, 8192)
        mixes.append({name: len(v) for name, v in window.samples.items()})
    assert mixes[0] == mixes[1]
    assert mixes[0]["manifest"] == 1 and mixes[0]["chunk"] >= 4


def test_every_rollout_block_holds_the_same_device_mix():
    def mix(start):
        counts = {}
        for index in range(start, start + BLOCK_DEVICES):
            key = tuple(sorted(kind(index).items()))
            counts[key] = counts.get(key, 0) + 1
        return counts

    assert DEVICES % BLOCK_DEVICES == 0
    first = mix(0)
    assert len(first) == 8
    assert all(mix(start) == first
               for start in range(0, DEVICES, BLOCK_DEVICES))
    swap = sum(n for key, n in first.items() if dict(key)["swap"])
    assert swap / BLOCK_DEVICES == 0.4

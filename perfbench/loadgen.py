"""The load generator of the pull workloads: its own clients, closed loop.

Nothing here imports the program's clients or swarm tool, so a change
to them cannot change the offered load.  ``repro.net.coap`` is used
only for the CoAP wire format, and the board/link profiles only for
the modelled radio energy of the bytes a session moves.

Each client is one keep-alive HTTP/1.1 connection or one UDP socket
and runs one device session after another (closed loop): register ->
token -> manifest -> ranged chunks -> report, each request waiting for
the previous reply.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from hashlib import sha256
from typing import Dict, Iterator, List, Optional

from .common import cpu_seconds, percentile

CLASSES = ("register", "token", "manifest", "chunk", "report")
#: A session that takes longer than this fails and stops its client.
SESSION_TIMEOUT = 30.0

clock = time.perf_counter


@dataclass
class Session:
    """What one device session saw, for the checker."""

    device_id: int
    token: str = ""
    nonce: int = 0
    version: int = 0
    envelope: str = ""
    manifest_sha256: str = ""
    payload_size: int = 0
    received_sha256: str = ""
    received_size: int = 0
    reported: bool = False
    error: str = ""
    latency: float = 0.0
    done_at: float = 0.0


class RadioModel:
    """Energy an nRF52840 radio would spend moving a session's messages
    over the simulator's 6LoWPAN link profile (tx for requests, rx for
    responses), in mJ."""

    def __init__(self) -> None:
        from repro.net.link import COAP_6LOWPAN
        from repro.platform import NRF52840

        self.link = COAP_6LOWPAN
        self.volts = NRF52840.supply_volts
        self.current_ma = {"tx": NRF52840.radio_tx_ma,
                           "rx": NRF52840.radio_rx_ma}

    def energy_mj(self, nbytes: int, direction: str) -> float:
        link = self.link
        seconds = (link.packets_for(nbytes) * link.packet_interval
                   + nbytes / link.raw_throughput)
        return seconds * self.current_ma[direction] * self.volts


class Window:
    """Client-side accounting of one measured window."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {c: [] for c in CLASSES}
        self.sessions: List[Session] = []
        self.wire_bytes = 0
        self.energy_mj = 0.0
        self.retransmits = 0
        self.elapsed = 0.0
        self.cpu_s = 0.0
        self.lag: List[float] = []
        #: (time, probe value) at the start, every block and the end.
        self.marks: List[tuple] = []

    def request_seconds(self) -> float:
        return sum(sum(values) for values in self.samples.values())

    def requests(self) -> int:
        return sum(len(values) for values in self.samples.values())

    def class_ms(self, name: str, q: float) -> float:
        return percentile(self.samples[name], q) * 1000.0


class HttpClient:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int, radio: RadioModel) -> None:
        self.port = port
        self.radio = radio
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.window = Window()

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            await self.writer.wait_closed()

    async def call(self, kind: str, method: str, path: str,
                   body: bytes = b"", headers: str = ""):
        request = ("%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   "Content-Length: %d\r\n%s\r\n"
                   % (method, path, len(body), headers)).encode() + body
        started = clock()
        self.writer.write(request)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        at = head.lower().find(b"content-length:")
        length = int(head[at + 15:head.index(b"\r\n", at)]) if at >= 0 \
            else 0
        payload = await self.reader.readexactly(length) if length else b""
        window = self.window
        window.samples[kind].append(clock() - started)
        received = len(head) + length
        window.wire_bytes += len(request) + received
        window.energy_mj += (self.radio.energy_mj(len(request), "tx")
                             + self.radio.energy_mj(received, "rx"))
        return int(head[9:12]), payload

    async def session(self, device_id: int, chunk_size: int) -> Session:
        s = Session(device_id)
        status, body = await self.call(
            "register", "POST", "/devices", _json(
                {"device_id": device_id, "channel": "stable",
                 "current_version": 1}))
        _expect(status, 201, body)
        status, body = await self.call(
            "token", "POST", "/devices/%d/token" % device_id,
            _json({"supports_differential": False}))
        _expect(status, 201, body)
        issued = json.loads(body)
        s.token, s.nonce = issued["token"], issued["nonce"]
        status, body = await self.call("manifest", "GET",
                                       "/manifests/" + s.token)
        _expect(status, 200, body)
        _note_manifest(s, json.loads(body))
        digest = sha256()
        size = s.payload_size
        for offset in range(0, size, chunk_size):
            status, body = await self.call(
                "chunk", "GET", "/images/" + s.token, headers=(
                    "Range: bytes=%d-%d\r\n"
                    % (offset, min(size, offset + chunk_size) - 1)))
            _expect(status, 206, body)
            digest.update(body)
            s.received_size += len(body)
        s.received_sha256 = digest.hexdigest()
        status, body = await self.call(
            "report", "POST", "/reports/" + s.token,
            _json({"status": "updated"}))
        _expect(status, 200, body)
        s.reported = True
        return s


class CoapClient(asyncio.DatagramProtocol):
    """One UDP socket speaking confirmable CoAP with Block2 transfers.

    Exchanges are sequential, so one pending waiter suffices; a reply
    whose message id or token does not match it is ignored.
    Retransmission follows RFC 7252 §4.2 (ACK_TIMEOUT doubling)."""

    ACK_TIMEOUT = 2.0
    MAX_RETRANSMIT = 4

    def __init__(self, radio: RadioModel, block_size: int) -> None:
        from repro.net import coap

        self.coap = coap
        self.radio = radio
        self.block_size = block_size
        self.transport = None
        self.window = Window()
        self._mid = 0
        self._token = 0
        self._waiter: Optional[asyncio.Future] = None
        self._expect_mid = b""
        self._expect_token = b""

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done() \
                and data[2:4] == self._expect_mid \
                and data[4:4 + (data[0] & 0x0F)] == self._expect_token:
            waiter.set_result(data)

    @classmethod
    async def open(cls, port: int, radio: RadioModel,
                   block_size: int) -> "CoapClient":
        loop = asyncio.get_running_loop()
        _transport, client = await loop.create_datagram_endpoint(
            lambda: cls(radio, block_size),
            remote_addr=("127.0.0.1", port))
        return client

    async def close(self) -> None:
        if self.transport is not None:
            self.transport.close()

    async def call(self, kind: str, code, path: str, payload: bytes = b"",
                   block_num: Optional[int] = None):
        coap = self.coap
        self._mid = (self._mid + 1) & 0xFFFF
        self._token += 1
        token = self._token.to_bytes(4, "big")
        message = coap.CoapMessage(mtype=coap.CoapType.CON, code=code,
                                   message_id=self._mid, token=token,
                                   payload=payload)
        for segment in path.split("/"):
            message.add_option(coap.CoapOption.URI_PATH, segment.encode())
        if block_num is not None:
            message.add_option(coap.CoapOption.BLOCK2, coap.Block(
                num=block_num, more=False, size=self.block_size).encode())
        datagram = message.encode()
        self._expect_mid = self._mid.to_bytes(2, "big")
        self._expect_token = token
        loop = asyncio.get_running_loop()
        window = self.window
        started = clock()
        timeout = self.ACK_TIMEOUT
        for attempt in range(self.MAX_RETRANSMIT + 1):
            waiter = loop.create_future()
            self._waiter = waiter
            timer = loop.call_later(timeout, _expire, waiter)
            self.transport.sendto(datagram)
            window.wire_bytes += len(datagram)
            window.energy_mj += self.radio.energy_mj(len(datagram), "tx")
            if attempt:
                window.retransmits += 1
            try:
                data = await waiter
            except asyncio.TimeoutError:
                timeout *= 2
                continue
            finally:
                timer.cancel()
            window.samples[kind].append(clock() - started)
            window.wire_bytes += len(data)
            window.energy_mj += self.radio.energy_mj(len(data), "rx")
            return coap.CoapMessage.decode(data)
        raise ConnectionError("no CoAP reply after %d retransmissions"
                              % self.MAX_RETRANSMIT)

    async def post(self, kind: str, path: str, body: dict,
                   expect) -> dict:
        reply = await self.call(kind, self.coap.CoapCode.POST, path,
                                _json(body))
        _expect(reply.code, expect, reply.payload)
        return json.loads(reply.payload)

    async def get_blocks(self, kind: str, path: str, sink) -> None:
        coap = self.coap
        num = 0
        while True:
            reply = await self.call(kind, coap.CoapCode.GET, path,
                                    block_num=num)
            _expect(reply.code, coap.CoapCode.CONTENT, reply.payload)
            sink(reply.payload)
            block = reply.block2()
            if block is None or not block.more:
                return
            num += 1

    async def session(self, device_id: int, _chunk_size: int) -> Session:
        codes = self.coap.CoapCode
        s = Session(device_id)
        await self.post("register", "devices",
                        {"device_id": device_id, "channel": "stable",
                         "current_version": 1}, codes.CREATED)
        issued = await self.post("token", "devices/%d/token" % device_id,
                                 {"supports_differential": False},
                                 codes.CHANGED)
        s.token, s.nonce = issued["token"], issued["nonce"]
        parts: List[bytes] = []
        await self.get_blocks("manifest", "manifests/" + s.token,
                              parts.append)
        _note_manifest(s, json.loads(b"".join(parts)))
        digest = sha256()

        def receive(block: bytes) -> None:
            digest.update(block)
            s.received_size += len(block)

        await self.get_blocks("chunk", "images/" + s.token, receive)
        s.received_sha256 = digest.hexdigest()
        await self.post("report", "reports/" + s.token,
                        {"status": "updated"}, codes.CHANGED)
        s.reported = True
        return s


async def closed_loop(clients, ids: Iterator[int], seconds: float,
                      chunk_size: int, probe, block_seconds: float
                      ) -> Window:
    """Run sessions back to back on every client until ``seconds``
    have passed; sessions started before the deadline finish and
    count.  ``probe()`` (the server's CPU seconds) is sampled into
    ``marks`` every ``block_seconds``.  Returns the merged window
    (client windows are reset)."""
    for client in clients:
        client.window = Window()
    loop = asyncio.get_running_loop()
    lag = LoopLag()
    lag_task = loop.create_task(lag.run())
    marks = [(clock(), probe())]
    cpu0 = cpu_seconds()
    started = marks[0][0]
    deadline = started + seconds

    async def sampler() -> None:
        due = started + block_seconds
        while due <= deadline:
            await asyncio.sleep(due - clock())
            marks.append((clock(), probe()))
            due += block_seconds

    sampler_task = loop.create_task(sampler())

    async def worker(client) -> None:
        alive = True
        while alive and clock() < deadline:
            device_id = next(ids)
            begun = clock()
            try:
                async with asyncio.timeout(SESSION_TIMEOUT):
                    session = await client.session(device_id, chunk_size)
            except (ValueError, KeyError) as exc:
                # A reply arrived but was wrong: the connection is still
                # in step, so the next session can use it.
                session = _failed(device_id, exc)
            except (OSError, EOFError, asyncio.LimitOverrunError) as exc:
                # Lost connection, no reply or timeout: stop this client.
                session = _failed(device_id, exc)
                alive = False
            session.done_at = clock()
            session.latency = session.done_at - begun
            client.window.sessions.append(session)

    try:
        await asyncio.gather(*(worker(client) for client in clients))
        await sampler_task
    finally:
        sampler_task.cancel()
        lag.stopped = True
        await lag_task
    merged = Window()
    merged.elapsed = clock() - started
    merged.cpu_s = cpu_seconds() - cpu0
    merged.lag = lag.samples
    merged.marks = marks + [(clock(), probe())]
    for client in clients:
        window = client.window
        for name in CLASSES:
            merged.samples[name].extend(window.samples[name])
        merged.sessions.extend(window.sessions)
        merged.wire_bytes += window.wire_bytes
        merged.energy_mj += window.energy_mj
        merged.retransmits += window.retransmits
    return merged


class LoopLag:
    """How late the generator's own event loop wakes a periodic timer."""

    INTERVAL = 0.005

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.stopped = False

    async def run(self) -> None:
        while not self.stopped:
            due = clock() + self.INTERVAL
            await asyncio.sleep(self.INTERVAL)
            self.samples.append(max(0.0, clock() - due))


def _failed(device_id: int, exc: BaseException) -> Session:
    return Session(device_id, error="%s: %s" % (type(exc).__name__, exc))


def _expire(waiter: asyncio.Future) -> None:
    if not waiter.done():
        waiter.set_exception(asyncio.TimeoutError())


def _json(body: dict) -> bytes:
    return json.dumps(body).encode()


def _note_manifest(session: Session, manifest: dict) -> None:
    session.version = manifest["version"]
    session.envelope = manifest["envelope"]
    session.manifest_sha256 = manifest["payload_sha256"]
    session.payload_size = manifest["payload_size"]


def _expect(status, wanted, body: bytes) -> None:
    if status != wanted:
        raise ValueError("status %s (wanted %s): %s"
                         % (status, wanted, bytes(body[:200])))

"""The server process of the pull workloads.

Run as ``python3 perfbench/serve_child.py --face http|coap --seed N
--image-size B --chunk-size C``.  It publishes v1 and v2 of the seeded firmware on the
``stable`` channel of a fresh ``FleetService``, serves it through
``HttpServer`` (loopback TCP) or ``CoapFront`` behind a UDP socket
(loopback UDP), prints ``{"port": P}`` and then answers one JSON
command per stdin line with one JSON line on stdout:

* ``{"cmd": "trace"}`` -> installs the span wrappers (traced run);
* ``{"cmd": "report"}`` -> spans aggregated per layer, plus the
  service's own cache and signer counters since ``trace``;
* ``{"cmd": "stop"}`` -> stops serving and exits.

End of stdin also stops the server, so it never outlives its parent.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench import ensure_src  # noqa: E402
from perfbench.common import APP_ID, LINK_OFFSET, firmware_pair  # noqa: E402
from perfbench.spans import SpanRecorder, aggregate  # noqa: E402


class UdpShim(asyncio.DatagramProtocol):
    """``CoapFront.handle_datagram`` behind a real UDP socket; the
    client's source address is the CoAP dedup endpoint."""

    def __init__(self, front) -> None:
        self.front = front
        self.transport = None
        self._tasks: "set[asyncio.Task]" = set()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve(data, addr))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve(self, data: bytes, addr) -> None:
        response = await self.front.handle_datagram(
            data, ("%s:%d" % addr[:2]).encode("ascii"))
        self.transport.sendto(response, addr)


def build_service(seed: int, image_size: int, chunk_size: int):
    """A FleetService with v1 and v2 of the seeded firmware on the
    ``stable`` channel, signed with the deterministic vendor key."""
    from repro.core import VendorServer, make_test_identities
    from repro.serve import FleetService

    v1, v2 = firmware_pair(seed, image_size)
    vendor_identity, _server, _anchors = make_test_identities()
    vendor = VendorServer(vendor_identity, app_id=APP_ID,
                          link_offset=LINK_OFFSET)
    service = FleetService(chunk_size=chunk_size)
    stable = service.channels["stable"]
    stable.publish(vendor.release(v1, 1))
    stable.publish(vendor.release(v2, 2))
    return service


def install_wrappers(recorder: SpanRecorder) -> None:
    """Spans around the public entry points of each serve-plane layer."""
    from repro.core.server import UpdateServer
    from repro.serve import CoapFront, FleetService, SignerPool

    for name in ("register_device", "issue_token",
                 "resolve_manifest_encoded", "read_chunk", "close_token"):
        recorder.wrap(FleetService, name, "service." + name)
    recorder.wrap(SignerPool, "dispatch", "signing.dispatch")
    recorder.wrap(SignerPool, "sign", "signing.sign")
    recorder.wrap(UpdateServer, "prepare_update", "server.prepare_update")
    recorder.wrap(CoapFront, "handle_datagram", "coapface.handle_datagram")
    # The one non-public wrap: the CoAP face hands ``_execute`` (route,
    # service call, response encoding) to the signer pool, so without
    # its own span that work would count as signer-pool queue time.
    recorder.wrap(CoapFront, "_execute", "coapface.execute")


def counters(service) -> dict:
    """The service's cache and signer counters (cumulative)."""
    artifacts = service.artifacts.stats
    server = service.channels["stable"].stats
    signatures = service.signer.signatures.stats_snapshot()
    return {
        "artifact_hits": artifacts.hits,
        "artifact_misses": artifacts.misses,
        "delta_updates": server.delta_updates,
        "delta_cache_hits": server.delta_cache_hits,
        "signature_hits": signatures.hits,
        "signature_misses": signatures.misses,
    }


class Child:
    def __init__(self, args) -> None:
        self.args = args
        self.recorder = SpanRecorder()
        self.service = None
        self.stopped: "asyncio.Event | None" = None
        self.loop = None
        self._baseline: dict = {}

    async def main(self, out) -> None:
        from repro.crypto import set_engine
        from repro.serve import CoapFront, HttpServer

        set_engine("fast")
        self.loop = asyncio.get_running_loop()
        self.stopped = asyncio.Event()
        self.service = build_service(self.args.seed, self.args.image_size,
                                     self.args.chunk_size)
        http = transport = None
        if self.args.face == "http":
            http = HttpServer(self.service, host="127.0.0.1", port=0)
            await http.start()
            port = http.port
        else:
            front = CoapFront(self.service)
            transport, _shim = await self.loop.create_datagram_endpoint(
                lambda: UdpShim(front), local_addr=("127.0.0.1", 0))
            port = transport.get_extra_info("sockname")[1]
        reader = threading.Thread(target=self.read_commands, args=(out,),
                                  daemon=True)
        reader.start()
        reply(out, {"port": port})
        try:
            await self.stopped.wait()
        finally:
            if http is not None:
                await http.stop()
            if transport is not None:
                transport.close()

    def read_commands(self, out) -> None:
        for line in sys.stdin:
            command = json.loads(line).get("cmd")
            if command == "stop":
                break
            reply(out, self.handle(command))
        self.loop.call_soon_threadsafe(self.stopped.set)

    def handle(self, command: str) -> dict:
        if command == "trace":
            install_wrappers(self.recorder)
            self.recorder.take()
            self._baseline = counters(self.service)
            return {"tracing": True}
        if command == "report":
            now = counters(self.service)
            return {"layers": aggregate(self.recorder.take()),
                    "counters": {key: now[key] - self._baseline.get(key, 0)
                                 for key in now}}
        return {"error": "unknown command %r" % command}


def reply(out, message: dict) -> None:
    out.write(json.dumps(message) + "\n")
    out.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--face", choices=("http", "coap"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--image-size", type=int, required=True)
    parser.add_argument("--chunk-size", type=int, required=True)
    args = parser.parse_args()
    ensure_src()
    # The protocol owns stdout; anything else the program prints goes
    # to stderr.
    out = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr
    asyncio.run(Child(args).main(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

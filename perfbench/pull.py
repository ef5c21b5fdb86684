"""The pull workloads: device sessions against a server in its own process.

``pull-small-http``: two keep-alive HTTP/1.1 connections, 8 KiB full
images fetched in 2 KiB ranges.  ``pull-large-coap``: two UDP sockets,
64 KiB full images fetched in 1 KiB Block2 blocks.  The server runs in
a child process (``serve_child.py``); this process is the generator.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import select
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from .checks import PullChecker
from .common import (Block, block_figures, device_ids, firmware_pair, median,
                     peak_rss_mb, percentile, proc_cpu_seconds, ratio)
from .loadgen import CLASSES, CoapClient, HttpClient, RadioModel, \
    closed_loop

#: ``block`` is the block length in seconds (see ``block_figures``).
SPECS = {
    "pull-small-http": {"face": "http", "image_size": 8 * 1024,
                        "chunk": 2048, "block": 1.0},
    "pull-large-coap": {"face": "coap", "image_size": 64 * 1024,
                        "chunk": 1024, "block": 2.0},
}
CLIENTS = 2          # connections / sockets (the host has 2 cores)
SETUPS = 5           # server starts per run; setup_s is their median
WARMUP_SECONDS = 1.0
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "serve_child.py")
REPLY_TIMEOUT = 60.0


class ServerChild:
    """The server process and its line-per-command control pipe."""

    def __init__(self, spec: dict, seed: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, "--face", spec["face"],
             "--seed", str(seed), "--image-size", str(spec["image_size"]),
             "--chunk-size", str(spec["chunk"])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.port = int(self._read()["port"])
        except BaseException:
            self.stop()
            raise

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    REPLY_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("server child gave no reply (exit code %s)"
                               % self.proc.poll())
        return json.loads(line)

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.proc.pid))

    def command(self, cmd: str) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> None:
        """Ask the child to exit, kill it if it will not, and reap it."""
        try:
            self.proc.stdin.write(json.dumps({"cmd": "stop"}) + "\n")
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def start_servers(spec: dict, seed: int) -> Tuple[ServerChild, List[float]]:
    """Start the server ``SETUPS`` times (timing each start up to its
    first reply); keep the last one running."""
    times = []
    child = None
    for _ in range(SETUPS):
        if child is not None:
            child.stop()
        started = time.perf_counter()
        child = ServerChild(spec, seed)
        times.append(time.perf_counter() - started)
    return child, times


def pin_apart(server_pid: int, cores: List[int]) -> None:
    """Give the server and the generator a core each, when there are
    two, so neither process migrates onto the other's core."""
    if len(cores) >= 2:
        try:
            os.sched_setaffinity(server_pid, {cores[1]})
            os.sched_setaffinity(0, {cores[0]})
        except OSError:
            pass            # affinity is a refinement, not a requirement


#: One busy loop on one core at the lowest priority (SCHED_IDLE); it
#: ends when its parent does, even one that was killed.
_SPIN = """
import os, sys
os.sched_setaffinity(0, {%d})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    sys.exit(0)         # never spin at normal priority
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(20000):
        pass
"""


@contextlib.contextmanager
def cores_kept_awake(cores: List[int]):
    """Keep ``cores`` out of their idle state while the block runs.

    On a virtual machine an idle core halts, and a loopback message to
    a process on a halted core waits until the hypervisor runs that
    core again: on a loaded host that adds milliseconds to a round
    trip, and whole runs of the pull workloads came out at a third of
    the usual rate with both processes mostly idle.  A busy loop at the
    lowest priority on each core takes only the time the benchmark's
    processes leave, and yields at once when one of them wakes, as a
    kernel booted with ``idle=poll`` would."""
    spinners = [subprocess.Popen([sys.executable, "-c", _SPIN % core])
                for core in cores]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
            spinner.wait()


async def _open_clients(spec: dict, port: int):
    radio = RadioModel()
    if spec["face"] == "http":
        clients = [HttpClient(port, radio) for _ in range(CLIENTS)]
        for client in clients:
            await client.connect()
        return clients
    return [await CoapClient.open(port, radio, spec["chunk"])
            for _ in range(CLIENTS)]


async def _drive(spec: dict, child: ServerChild, seed: int, seconds: float,
                 trace: bool) -> dict:
    ids = device_ids(seed)
    clients = await _open_clients(spec, child.port)

    async def window(seconds: float):
        return await closed_loop(clients, ids, seconds, spec["chunk"],
                                 child.cpu_seconds, spec["block"])

    try:
        warm = await window(WARMUP_SECONDS)
        plain = await window(seconds / 2 if trace else seconds)
        peak_rss = child.peak_rss_mb()
        traced = layers = None
        if trace:
            child.command("trace")
            traced = await window(seconds / 2)
            layers = child.command("report")
    finally:
        for client in clients:
            await client.close()
    return {"warm": warm, "plain": plain, "traced": traced,
            "layers": layers, "peak_rss_mb": peak_rss}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.crypto import set_engine

    set_engine("fast")
    spec = SPECS[workload]
    _v1, v2 = firmware_pair(seed, spec["image_size"])
    # The generator's core and the server's (see pin_apart); on a
    # larger host the other cores are left alone.
    cores = sorted(os.sched_getaffinity(0))[:2]
    child, setups = start_servers(spec, seed)
    try:
        pin_apart(child.proc.pid, cores)
        with cores_kept_awake(cores):
            runs = asyncio.run(_drive(spec, child, seed, seconds, trace))
    finally:
        child.stop()
    # Signature verification runs here, after the server has stopped,
    # so its CPU never competes with the timed windows.
    checker = PullChecker(v2)
    windows = [runs[key] for key in ("warm", "plain", "traced")
               if runs[key] is not None]
    failed = sum(checker.check_all(window.sessions) for window in windows)
    attempted = sum(len(window.sessions) for window in windows)
    plain = runs["plain"]
    server_cpu = plain.marks[-1][1] - plain.marks[0][1]
    notes = {
        "checks": dict(checker.counts),
        "gen.loop_lag_p99_ms": percentile(plain.lag, 0.99) * 1000.0,
        "gen.cpu_util": plain.cpu_s / plain.elapsed,
        "server.cpu_util": server_cpu / plain.elapsed,
        "sessions": len(plain.sessions),
        "retransmits": plain.retransmits,
        "block_updates_per_s": [round(len(lat) / secs, 1)
                                for secs, _cpu, lat in blocks(plain)],
        "block_server_cpu_util": [round(cpu / secs, 2)
                                  for secs, cpu, _lat in blocks(plain)],
    }
    if trace:
        metrics = _per_layer(spec, runs, server_cpu)
        metrics["failed_ratio"] = ratio(failed, attempted)
    else:
        metrics = _end_to_end(plain, runs["peak_rss_mb"], setups)
    errors = [s.error for window in windows for s in window.sessions
              if s.error][:3]
    if errors:
        notes["first_errors"] = errors
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "notes": notes}


def _updates_per_s(window) -> float:
    return sum(1 for s in window.sessions if not s.error) / window.elapsed


def blocks(window) -> List[Block]:
    """The window cut at its marks; the last stretch, where the final
    sessions drain after the deadline, is left out."""
    edges = window.marks[:-1]
    return [(t1 - t0, cpu1 - cpu0,
             [s.latency for s in window.sessions
              if not s.error and t0 <= s.done_at < t1])
            for (t0, cpu0), (t1, cpu1) in zip(edges, edges[1:])]


def _end_to_end(window, peak_rss: float,
                setups: List[float]) -> Dict[str, float]:
    sessions = max(1, len(window.sessions))
    figures = block_figures(blocks(window))
    figures.update({
        "peak_rss_mb": peak_rss,
        "setup_s": median(setups),
        "air_bytes_per_update": window.wire_bytes / sessions,
        "energy_mj_per_update": window.energy_mj / sessions,
    })
    return figures


def _per_layer(spec: dict, runs: dict,
               server_cpu: float) -> Dict[str, float]:
    plain, traced = runs["plain"], runs["traced"]
    layers = runs["layers"]["layers"]
    counters = runs["layers"]["counters"]
    row = lambda name: layers.get(name, {"calls": 0, "total_s": 0.0,  # noqa
                                         "self_s": 0.0, "root_s": 0.0})
    updates = max(1, len(traced.sessions))
    requests = max(1, traced.requests())
    client_s = traced.request_seconds()
    root_s = sum(entry["root_s"] for entry in layers.values())
    manifests = max(1, row("service.resolve_manifest_encoded")["calls"])
    service_calls = sum(entry["calls"] for name, entry in layers.items()
                        if name.startswith("service."))
    out = {
        "gen.loop_lag_p99_ms": percentile(plain.lag, 0.99) * 1000.0,
        "gen.cpu_util": plain.cpu_s / plain.elapsed,
        "server.cpu_util": server_cpu / plain.elapsed,
        "service.calls_per_update": service_calls / updates,
        "signing.queue_ms_per_manifest":
            row("signing.dispatch")["self_s"] * 1000.0 / manifests,
        "signing.sign_ms_per_manifest":
            row("signing.sign")["total_s"] * 1000.0 / manifests,
        "signing.signs_per_update": row("signing.sign")["calls"] / updates,
        "signing.cache_hit_ratio": ratio(
            counters["signature_hits"],
            counters["signature_hits"] + counters["signature_misses"]),
        "server.prepare_update_ms": ratio(
            row("server.prepare_update")["self_s"] * 1000.0,
            row("server.prepare_update")["calls"]),
        "artifacts.hit_ratio": ratio(
            counters["artifact_hits"],
            counters["artifact_hits"] + counters["artifact_misses"]),
        "server.delta_cache_hit_ratio": ratio(
            counters["delta_cache_hits"], counters["delta_updates"]),
        "trace.coverage": ratio(root_s, client_s),
        "trace.overhead_pct":
            (1.0 - ratio(_updates_per_s(traced), _updates_per_s(plain)))
            * 100.0,
    }
    for name in CLASSES:
        out["req.%s.p50_ms" % name] = plain.class_ms(name, 0.5)
        out["req.%s.p99_ms" % name] = plain.class_ms(name, 0.99)
    for name in ("register_device", "issue_token", "read_chunk",
                 "close_token"):
        entry = row("service." + name)
        out["service.%s.busy_us" % name] = ratio(entry["total_s"] * 1e6,
                                                 entry["calls"])
    if spec["face"] == "http":
        # Client-observed request time the server spans do not cover:
        # HTTP framing and the event loop (plus the loopback hop).
        out["httpd.self_ms_per_request"] = \
            (client_s - root_s) * 1000.0 / requests
    else:
        handle = row("coapface.handle_datagram")
        out["coapface.self_ms_per_request"] = ratio(
            (handle["self_s"] + row("coapface.execute")["self_s"])
            * 1000.0, handle["calls"])
        out["coapface.retransmits_per_update"] = traced.retransmits / updates
    return out

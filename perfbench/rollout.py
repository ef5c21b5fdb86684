"""The ``rollout-mixed`` workload: one in-process fleet campaign.

200 nRF52840/Zephyr devices go from v1 to v2 (24 KiB images) through a
``Campaign`` with the serial wave executor and a file-backed
``CampaignJournal``.  Device ``i`` crosses three factors: transport
push or pull (alternating, ``i % 2``), full image or LZSS+bsdiff delta
(``i // 2 % 2``) and memory layout: static slot plus bootloader swap
for ``i // 4 % 5`` in (1, 3), A/B otherwise.  Every 20 consecutive
devices hold the same mix.  Swap devices are 40% rather
than half of the fleet so that neither the median nor the 90th
percentile of update times falls on the edge between two kinds of
device.

A run builds a fresh fleet and runs a campaign over it until the
campaigns have taken ``--seconds`` (at least ``MIN_SETUPS`` fleets are
built, so ``setup_s`` is a median).  The end-to-end timings are
medians over blocks of 100 devices (so a block's 90th percentile has
ten devices beyond it).  The traced run times half of the
campaigns untraced and half with the span wrappers installed.
"""

from __future__ import annotations

import gc
import itertools
import os
import shutil
import time
from typing import Dict, List

from .checks import check_rollout
from .common import (APP_ID, LINK_OFFSET, block_figures, cpu_seconds,
                     device_ids, firmware_pair, median, peak_rss_mb, ratio)
from .spans import SpanRecorder, aggregate

DEVICES = 200
BLOCK_DEVICES = 100
IMAGE_SIZE = 24 * 1024
SLOT_SIZE = 64 * 1024
MIN_SETUPS = 3


def kind(index: int) -> dict:
    """The factors of device ``index`` (period 20, see module doc)."""
    return {"pull": bool(index % 2), "differential": bool(index // 2 % 2),
            "swap": index // 4 % 5 in (1, 3)}


def build_fleet(v1: bytes, v2: bytes, ids):
    """A provisioned fleet at v1 with v2 published; returns
    ``(server, fleet)``."""
    from repro.core import (DeviceProfile, UpdateServer, VendorServer,
                            make_test_identities, provision_device)
    from repro.fleet import DeviceRecord
    from repro.memory import MemoryLayout
    from repro.platform import NRF52840, ZEPHYR
    from repro.sim import SimulatedDevice

    vendor_identity, server_identity, anchors = make_test_identities()
    vendor = VendorServer(vendor_identity, app_id=APP_ID,
                          link_offset=LINK_OFFSET)
    server = UpdateServer(server_identity)
    server.publish(vendor.release(v1, 1))
    fleet = []
    for index, device_id in zip(range(DEVICES), ids):
        factors = kind(index)
        internal = NRF52840.make_internal_flash()
        if factors["swap"]:
            layout = MemoryLayout.configuration_b(internal, SLOT_SIZE)
        else:
            layout = MemoryLayout.configuration_a(internal, SLOT_SIZE)
        profile = DeviceProfile(
            device_id=device_id, app_id=APP_ID, link_offset=LINK_OFFSET,
            supports_differential=factors["differential"])
        device = SimulatedDevice(board=NRF52840, os_profile=ZEPHYR,
                                 layout=layout, profile=profile,
                                 anchors=anchors)
        provision_device(server, layout.get("a"), device_id)
        fleet.append(DeviceRecord(
            name="dev-%03d" % index, device=device,
            transport="pull" if factors["pull"] else "push"))
    server.publish(vendor.release(v2, 2))
    return server, fleet


def install_wrappers(recorder: SpanRecorder) -> None:
    """Spans around the public entry points of each device-side layer."""
    from repro.compression.lzss import LzssDecoder
    from repro.core import Bootloader, UpdateServer
    from repro.core.keys import SigningIdentity
    from repro.core.pipeline import Pipeline
    from repro.core.verifier import Verifier
    from repro.delta.bspatch import StreamingPatcher
    from repro.fleet import Campaign, CampaignJournal
    from repro.fleet import campaign as campaign_module
    from repro.memory import FlashMemory
    from repro.memory.swap import ResumableSwap
    from repro.net import PullTransport, PushTransport
    from repro.sim import SimulatedDevice

    wraps = [
        (Campaign, "run", "campaign.run"),
        (campaign_module, "drive_attempt", "campaign.drive_attempt"),
        (CampaignJournal, "append", "journal.append"),
        (PushTransport, "run_update", "transport.run_update"),
        (PullTransport, "run_update", "transport.run_update"),
        (UpdateServer, "prepare_update", "server.prepare_update"),
        (SigningIdentity, "sign", "signing.sign"),
        (SimulatedDevice, "request_token", "device.request_token"),
        (SimulatedDevice, "feed", "device.feed"),
        (SimulatedDevice, "reboot", "device.reboot"),
        (Verifier, "verify_signatures", "verifier.verify_signatures"),
        (Verifier, "verify_firmware", "verifier.verify_firmware"),
        (Pipeline, "feed", "pipeline.feed"),
        (Pipeline, "finish", "pipeline.finish"),
        (LzssDecoder, "feed", "lzss.feed"),
        (LzssDecoder, "finish", "lzss.finish"),
        (StreamingPatcher, "feed", "bspatch.feed"),
        (StreamingPatcher, "finish", "bspatch.finish"),
        (FlashMemory, "write", "flash.write"),
        (FlashMemory, "erase_page", "flash.erase"),
        (Bootloader, "boot", "boot.boot"),
        (ResumableSwap, "swap", "swap.swap"),
    ]
    for owner, attr, name in wraps:
        recorder.wrap(owner, attr, name)


class Rollout:
    """Builds fleets and runs campaigns, keeping what the metrics need."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.v1, self.v2 = firmware_pair(seed, IMAGE_SIZE)
        self.ids = device_ids(seed)
        self.workdir = workdir
        self.setups: List[float] = []
        self.digest = None
        self.failed = 0
        self.attempted = 0
        self.counter = itertools.count()
        self._fleet = None

    def setup(self) -> None:
        """Build and provision a fresh fleet (timed)."""
        self._fleet = None
        gc.collect()
        started = time.perf_counter()
        self._fleet = build_fleet(self.v1, self.v2, self.ids)
        self.setups.append(time.perf_counter() - started)

    def campaign(self) -> dict:
        """Run one campaign over the fleet from :meth:`setup`; returns
        its timings (per-device gaps between completions) and report."""
        from repro.fleet import Campaign, CampaignJournal, \
            SerialWaveExecutor

        server, fleet = self._fleet
        # (wall, CPU) as each device's update finishes: the serial
        # executor calls its scrape hook right after each device.
        marks = []
        executor = SerialWaveExecutor()
        executor.scrape = lambda _record: marks.append(
            (time.perf_counter(), cpu_seconds()))
        journal = CampaignJournal(os.path.join(
            self.workdir, "campaign-%d.journal" % next(self.counter)))
        before = _counters(server)
        marks.append((time.perf_counter(), cpu_seconds()))
        try:
            report = Campaign(server, fleet, executor=executor,
                              journal=journal).run()
        finally:
            journal.close()
        elapsed = time.perf_counter() - marks[0][0]
        cpu = cpu_seconds() - marks[0][1]
        after = _counters(server)
        check = check_rollout(report, fleet, self.v2, self.digest)
        self.digest = self.digest or check["digest"]
        failed = check["failed"] + (0 if check["digest_ok"] else DEVICES)
        self.failed += min(DEVICES, failed)
        self.attempted += DEVICES
        gaps = [(t1 - t0, c1 - c0) for (t0, c0), (t1, c1)
                in zip(marks, marks[1:])]
        return {
            "elapsed": elapsed, "cpu": cpu, "report": report,
            "verified": DEVICES - min(DEVICES, failed),
            # A device's update time is the gap since the previous one
            # finished; blocks count only verified campaigns.
            "blocks": [] if failed else [
                (sum(g for g, _c in gaps[i:i + BLOCK_DEVICES]),
                 sum(c for _g, c in gaps[i:i + BLOCK_DEVICES]),
                 [g for g, _c in gaps[i:i + BLOCK_DEVICES]])
                for i in range(0, len(gaps), BLOCK_DEVICES)],
            "counters": {key: after[key] - before[key] for key in after},
        }

    def campaigns(self, seconds: float, recorder=None) -> List[dict]:
        """Set up and run campaigns until they have taken ``seconds``;
        with a ``recorder``, its wrappers are installed around each
        campaign (never around set-up)."""
        runs: List[dict] = []
        while not runs or sum(r["elapsed"] for r in runs) < seconds:
            self.setup()
            if recorder is not None:
                install_wrappers(recorder)
            try:
                runs.append(self.campaign())
            finally:
                if recorder is not None:
                    recorder.uninstall()
        return runs


def _counters(server) -> Dict[str, int]:
    """Cache counters of the crypto engine and of ``server``."""
    from repro.crypto import get_engine

    engine = get_engine().stats_snapshot()
    return {"verify_calls": engine.verify_calls,
            "verify_hits": engine.verify_cache_hits,
            "artifact_hits": server.artifacts.stats.hits,
            "artifact_misses": server.artifacts.stats.misses,
            "delta_updates": server.stats.delta_updates,
            "delta_cache_hits": server.stats.delta_cache_hits}


def run(seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    from repro.crypto import set_engine

    set_engine("fast")
    os.makedirs(workdir, exist_ok=True)
    try:
        rollout = Rollout(seed, workdir)
        plain = rollout.campaigns(seconds / 2 if trace else seconds)
        traced = layers = None
        if trace:
            recorder = SpanRecorder()
            traced = rollout.campaigns(seconds / 2, recorder)
            layers = aggregate(recorder.take())
        while len(rollout.setups) < MIN_SETUPS:
            rollout.setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass                # another run still uses it
    if trace:
        metrics = _per_layer(plain, traced, layers, rollout.setups)
        metrics["failed_ratio"] = ratio(rollout.failed, rollout.attempted)
    else:
        metrics = _end_to_end(plain, rollout.setups)
    notes = {"report_sha256": rollout.digest,
             "checks": {"devices": rollout.attempted,
                        "campaigns": rollout.attempted // DEVICES},
             "campaign_seconds": [round(r["elapsed"], 3)
                                  for r in plain + (traced or [])],
             "block_updates_per_s": [round(len(lat) / secs, 1)
                                     for r in plain
                                     for secs, _cpu, lat in r["blocks"]]}
    return {"attempted": rollout.attempted, "failed": rollout.failed,
            "metrics": metrics, "notes": notes}


def _updates_per_s(runs: List[dict]) -> float:
    return sum(r["verified"] for r in runs) / sum(r["elapsed"] for r in runs)


def _end_to_end(runs: List[dict], setups: List[float]) -> Dict[str, float]:
    updated = max(1, sum(len(r["report"].updated) for r in runs))
    figures = block_figures([block for r in runs for block in r["blocks"]])
    figures.update({
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": median(setups),
        "air_bytes_per_update": sum(r["report"].total_bytes_over_air
                                    for r in runs) / updated,
        "energy_mj_per_update": sum(r["report"].total_energy_mj
                                    for r in runs) / updated,
    })
    return figures


def _per_layer(plain: List[dict], traced: List[dict],
               layers: Dict[str, Dict[str, float]],
               setups: List[float]) -> Dict[str, float]:
    def total(prefix: str, key: str = "total_s") -> float:
        return sum(row[key] for name, row in layers.items()
                   if name.startswith(prefix))

    def calls(prefix: str) -> int:
        return sum(row["calls"] for name, row in layers.items()
                   if name.startswith(prefix))

    def counter(key: str) -> int:
        return sum(r["counters"][key] for r in traced)

    updates = max(1, sum(len(r["report"].updated) for r in traced))
    per_update_ms = lambda seconds: seconds * 1000.0 / updates  # noqa
    run_total = total("campaign.run")
    return {
        "campaign.self_ms_per_update":
            per_update_ms(total("campaign.run", "self_s")),
        "journal.append_ms_per_update": per_update_ms(total("journal.")),
        "transport.self_ms_per_update":
            per_update_ms(total("transport.", "self_s")),
        "device.self_ms_per_update":
            per_update_ms(total("device.", "self_s")),
        "server.prepare_update_ms": ratio(
            total("server.prepare_update", "self_s") * 1000.0,
            calls("server.prepare_update")),
        "signing.sign_ms_per_manifest": ratio(
            total("signing.sign") * 1000.0, calls("server.prepare_update")),
        "signing.signs_per_update": calls("signing.sign") / updates,
        "artifacts.hit_ratio": ratio(
            counter("artifact_hits"),
            counter("artifact_hits") + counter("artifact_misses")),
        "server.delta_cache_hit_ratio": ratio(counter("delta_cache_hits"),
                                              counter("delta_updates")),
        "verifier.ms_per_update": per_update_ms(total("verifier.")),
        "crypto.verify_cache_hit_ratio": ratio(counter("verify_hits"),
                                               counter("verify_calls")),
        "lzss.decode_ms_per_update": per_update_ms(total("lzss.")),
        "bspatch.ms_per_update": per_update_ms(total("bspatch.")),
        "pipeline.self_ms_per_update":
            per_update_ms(total("pipeline.", "self_s")),
        "flash.write_ms_per_update": per_update_ms(total("flash.write")),
        "flash.write_calls_per_update": calls("flash.write") / updates,
        "flash.erase_ms_per_update": per_update_ms(total("flash.erase")),
        "boot.ms_per_update": per_update_ms(total("boot.")),
        "swap.ms_per_update": per_update_ms(total("swap.")),
        "setup.provision_ms_per_device": median(setups) * 1000.0 / DEVICES,
        "trace.coverage": 1.0 - ratio(total("campaign.run", "self_s"),
                                      run_total),
        "trace.overhead_pct":
            (1.0 - ratio(_updates_per_s(traced), _updates_per_s(plain)))
            * 100.0,
    }

"""Seeded inputs and small measurement helpers shared by every workload.

Only the benchmark decides what the program sees: firmware bytes and
device ids derive from ``--seed`` here, and nowhere else.
"""

from __future__ import annotations

import os
import random
import resource
import time
from typing import Dict, Iterator, List, Sequence, Tuple

#: Application id and link offset the releases are minted for (the
#: values the serve plane's own releases use).
APP_ID = 0x55504B49
LINK_OFFSET = 0x8000


def firmware_pair(seed: int, size: int) -> Tuple[bytes, bytes]:
    """``(v1, v2)`` firmware images of ``size`` bytes for ``seed``."""
    from repro.workload import FirmwareGenerator

    generator = FirmwareGenerator(seed=b"perfbench-%d" % seed)
    v1 = generator.firmware(size, image_id=1)
    return v1, generator.os_version_change(v1, revision=2)


def device_ids(seed: int) -> Iterator[int]:
    """Distinct non-zero 32-bit device ids, a fixed sequence per seed."""
    rng = random.Random("perfbench-ids-%d" % seed)
    seen = set()
    while True:
        device_id = rng.getrandbits(32)
        if device_id and device_id not in seen:
            seen.add(device_id)
            yield device_id


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def cpu_seconds() -> float:
    """User + system CPU time of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU time of process ``pid``, from ``/proc``."""
    with open("/proc/%d/stat" % pid) as stat:
        fields = stat.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open("/proc/%s/status" % pid) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/%s/status" % pid)


#: One block of a run: (wall seconds, CPU seconds, update latencies).
Block = Tuple[float, float, List[float]]


def block_figures(blocks: List[Block]) -> Dict[str, float]:
    """The timed end-to-end figures of a run, each the median over its
    blocks of that block's figure.

    A run is cut into blocks of consecutive updates, so a burst of
    load from outside the benchmark that covers less than half of the
    run moves none of these figures."""
    done = [(secs, cpu, lat) for secs, cpu, lat in blocks if lat]
    return {
        "updates_per_s": median([len(lat) / secs
                                 for secs, _cpu, lat in blocks]),
        "update_p50_ms": median([percentile(lat, 0.5)
                                 for _s, _c, lat in done]) * 1000.0,
        "update_p90_ms": median([percentile(lat, 0.9)
                                 for _s, _c, lat in done]) * 1000.0,
        "cpu_ms_per_update": median([cpu / len(lat)
                                     for _s, cpu, lat in done]) * 1000.0,
    }


def reference_loop_ms() -> float:
    """Best of 5 timings of a fixed pure-Python loop, in ms: the host's
    speed at that moment, printed beside a run so host drift shows."""
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` clock ticks of all CPUs since boot."""
    with open("/proc/stat") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0

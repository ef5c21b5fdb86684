"""Fleet-scale fast-path benchmark (``perf`` marker; not tier-1).

Runs the :mod:`repro.tools.bench` harness at the acceptance scale —
a 50-device campaign — and writes ``BENCH_fleet.json`` at the repo
root so subsequent PRs can track the performance trajectory.  The
headline claim: the fast crypto engine delivers at least a 5x end-to-end
campaign speedup over the seed path (reference engine) while producing
the identical :class:`~repro.fleet.campaign.CampaignReport`.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_fleet.py -m perf

or via the CLI (same harness, no pytest)::

    PYTHONPATH=src python -m repro.tools.cli bench
"""

from __future__ import annotations

import os

import pytest

from repro.tools import bench

pytestmark = pytest.mark.perf

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_fleet.json")

DEVICES = 50
MIN_CAMPAIGN_SPEEDUP = 5.0


def test_fleet_fast_path_speedup():
    results = bench.run_all(device_count=DEVICES)
    bench.write_results(results, BENCH_PATH)
    print("\n" + bench.format_summary(results))
    print("wrote %s" % BENCH_PATH)

    campaign = results["campaign"]
    # Identical outcomes are a precondition for the speedup to count.
    assert campaign["reports_identical"] is True
    assert campaign["devices"] == DEVICES
    assert campaign["speedup"] >= MIN_CAMPAIGN_SPEEDUP

    # The primitives behind the end-to-end number.
    assert results["sha256"]["speedup"] > 10
    assert results["ecdsa_verify"]["speedup"] > 1.5

"""The swarm bench: bounded tier-1 run, schema v6, baseline gate.

Tier-1 drives a small-but-real swarm (hundreds of full sessions over
TCP) and pins the artifact contract: zero failed sessions, the exact
endpoint mix, `cli report --validate` acceptance, and the `server`
section regression gate in both directions — including the v6
per-endpoint p50/p99 gate and the ``--profile`` phase breakdown.  The
acceptance-scale 10k swarm rides behind ``-m serve``.
"""

from __future__ import annotations

import asyncio
import copy
import json

import pytest

from repro.tools import swarm
from repro.tools.bench import compare_to_baseline
from repro.tools.cli import main
from repro.tools.report import SCHEMA_VERSIONS, load_report, validate_data

SESSIONS = 150


@pytest.fixture(scope="module")
def bench_doc():
    return swarm.run_benchmark(sessions=SESSIONS, concurrency=32,
                               image_size=4096, chunk_bytes=1024)


def test_bounded_swarm_has_zero_failed_sessions(bench_doc):
    server = bench_doc["server"]
    assert server["sessions"] == SESSIONS
    assert server["failed_sessions"] == 0
    assert server["failures"] == []
    assert server["served_devices"] == SESSIONS
    # Every session is the identical flow: register, token, manifest,
    # N ranged chunks (payload = image + manifest overhead), report.
    mix = server["endpoint_mix"]
    assert {cls: mix[cls] for cls in ("register", "token", "manifest",
                                      "report")} \
        == {"register": 1, "token": 1, "manifest": 1, "report": 1}
    assert mix["chunk"] >= 4096 // 1024
    assert server["requests"] == SESSIONS * sum(mix.values())
    assert server["req_per_s"] > 0
    assert server["p50_session_ms"] <= server["p99_session_ms"]
    for cls in swarm.ENDPOINT_CLASSES:
        entry = server["endpoints"][cls]
        assert entry["count"] == SESSIONS * server["endpoint_mix"][cls]
        assert entry["p50_ms"] <= entry["p99_ms"]
    assert server["peak_rss_kb"] > 0


def test_artifact_round_trips_through_validate(bench_doc, tmp_path):
    path = str(tmp_path / "BENCH_server.json")
    swarm.write_results(copy.deepcopy(bench_doc), path)
    kind, version, data = load_report(path)
    assert (kind, version) == ("bench", SCHEMA_VERSIONS["bench"])
    assert validate_data(kind, version, data) == []
    assert main(["report", "--validate", path]) == 0


def test_validate_rejects_failed_sessions(bench_doc):
    broken = copy.deepcopy(bench_doc)
    broken["server"]["failed_sessions"] = 3
    errors = validate_data("bench", 6, broken)
    assert any("failed sessions" in error for error in errors)
    missing = copy.deepcopy(bench_doc)
    del missing["server"]["req_per_s"]
    errors = validate_data("bench", 6, missing)
    assert any("req_per_s" in error for error in errors)


def test_v6_validation_demands_every_endpoint_class(bench_doc):
    """v6 server-only artifacts must break out all five endpoint
    classes with numeric p50/p99 — that is what the per-endpoint
    gate compares; v5 artifacts are grandfathered."""
    partial = copy.deepcopy(bench_doc)
    del partial["server"]["endpoints"]["manifest"]
    errors = validate_data("bench", 6, partial)
    assert any("break out endpoint 'manifest'" in e for e in errors)
    assert validate_data("bench", 5, partial) == []
    hollow = copy.deepcopy(bench_doc)
    hollow["server"]["endpoints"]["token"]["p99_ms"] = None
    errors = validate_data("bench", 6, hollow)
    assert any("endpoint 'token' needs a numeric p99_ms" in e
               for e in errors)


def test_gate_passes_against_itself(bench_doc):
    assert compare_to_baseline(bench_doc, bench_doc) == []


def test_gate_names_regressions_in_both_directions(bench_doc):
    # Latency/RSS growth (lower-is-better metrics).
    for metric in ("p99_session_ms", "peak_rss_kb"):
        slower = copy.deepcopy(bench_doc)
        slower["server"][metric] = bench_doc["server"][metric] * 2.0
        problems = compare_to_baseline(slower, bench_doc)
        assert any("server %s regressed" % metric in p
                   for p in problems), (metric, problems)
    # Throughput drop (higher-is-better, inverted comparison).
    slower = copy.deepcopy(bench_doc)
    slower["server"]["req_per_s"] = \
        bench_doc["server"]["req_per_s"] * 0.5
    problems = compare_to_baseline(slower, bench_doc)
    assert len(problems) == 1
    assert "server req_per_s regressed" in problems[0]
    # Getting faster/leaner never trips the gate.
    faster = copy.deepcopy(bench_doc)
    faster["server"]["req_per_s"] *= 2.0
    faster["server"]["p99_session_ms"] *= 0.5
    assert compare_to_baseline(faster, bench_doc) == []


def test_gate_catches_per_endpoint_convoy(bench_doc):
    """A regression hiding inside one endpoint class (the convoy
    signature: manifest latency balloons while cheap chunk requests
    keep aggregate req/s respectable) trips the v6 per-endpoint
    gate in both comparison directions."""
    convoyed = copy.deepcopy(bench_doc)
    entry = convoyed["server"]["endpoints"]["manifest"]
    entry["p50_ms"] = bench_doc["server"]["endpoints"]["manifest"][
        "p50_ms"] * 10.0
    entry["p99_ms"] = bench_doc["server"]["endpoints"]["manifest"][
        "p99_ms"] * 10.0
    problems = compare_to_baseline(convoyed, bench_doc)
    assert any("server endpoint manifest p50_ms regressed" in p
               for p in problems), problems
    assert any("server endpoint manifest p99_ms regressed" in p
               for p in problems), problems
    # The other direction: the convoyed run as baseline never blocks
    # the faster run.
    assert compare_to_baseline(bench_doc, convoyed) == []
    # A v5-era baseline without a class's numbers is tolerated.
    legacy = copy.deepcopy(bench_doc)
    legacy["server"]["endpoints"]["manifest"]["p99_ms"] = None
    assert compare_to_baseline(bench_doc, legacy) == []


def test_profile_section_breaks_out_phases(tmp_path):
    """`cli swarm --profile` embeds a per-endpoint phase breakdown
    (queue wait / sign / serialize / write) aggregated from the
    server tracer, and the artifact still validates (v6 treats the
    profile block as optional but typed)."""
    doc = swarm.run_profiled_benchmark(sessions=20, concurrency=8,
                                       image_size=4096,
                                       chunk_bytes=1024)
    server = doc["server"]
    assert server["failed_sessions"] == 0
    profile = server["profile"]
    assert profile["failed_sessions_profiled"] == 0
    endpoints = profile["endpoints"]
    assert set(endpoints) == set(swarm.ENDPOINT_CLASSES)
    for cls in swarm.ENDPOINT_CLASSES:
        entry = endpoints[cls]
        assert entry["requests"] == 20 * server["endpoint_mix"][cls]
        phases = entry["phases"]
        assert set(phases) <= set(swarm.PROFILE_PHASES)
        for stats in phases.values():
            assert stats["count"] > 0
            assert stats["p50_ms"] <= stats["p99_ms"]
            assert stats["total_ms"] > 0
    # Manifests go through the signer pool: queue wait and the signing
    # service call must both be visible; plain control endpoints must
    # not record a queue wait.
    assert "queue_wait" in endpoints["manifest"]["phases"]
    assert "sign" in endpoints["manifest"]["phases"]
    assert endpoints["manifest"]["phases"]["sign"]["count"] == 20
    assert "queue_wait" not in endpoints["register"]["phases"]
    assert "write" in endpoints["chunk"]["phases"]
    path = str(tmp_path / "BENCH_profile.json")
    swarm.write_results(copy.deepcopy(doc), path)
    assert main(["report", "--validate", path]) == 0
    # A malformed profile block is rejected.
    broken = copy.deepcopy(doc)
    broken["server"]["profile"]["endpoints"]["manifest"] = {"x": 1}
    errors = validate_data("bench", 6, broken)
    assert any("profile endpoint 'manifest'" in e for e in errors)


def test_bench_embeds_signer_pool_delta(bench_doc):
    """The artifact carries this run's signer-pool and signature-cache
    activity, as a *delta* (the pool is process-wide): one dispatched
    job per manifest, and — because every token binds a distinct
    manifest — exactly one producer sign per session."""
    pool = bench_doc["server"]["signer_pool"]
    assert pool["jobs"] == SESSIONS          # one dispatch per manifest
    assert pool["signs"] == SESSIONS
    assert 1 <= pool["batches"] <= pool["jobs"]
    cache = pool["signature_cache"]
    assert cache["misses"] == SESSIONS       # one producer per token
    assert cache["hits"] == 0                # re-fetches never re-sign


def test_gate_demands_matching_workloads(bench_doc):
    for key, value in (("sessions", SESSIONS * 2),
                       ("image_bytes", 8192),
                       ("chunk_bytes", 512)):
        other = copy.deepcopy(bench_doc)
        other["server"][key] = value
        problems = compare_to_baseline(other, bench_doc)
        assert len(problems) == 1
        assert "regenerate the baseline" in problems[0]
    mixed = copy.deepcopy(bench_doc)
    mixed["server"]["endpoint_mix"]["chunk"] = 9
    problems = compare_to_baseline(mixed, bench_doc)
    assert "endpoint_mix" in problems[0]
    assert "regenerate the baseline" in problems[0]


def test_server_only_vs_campaign_docs_keep_the_legacy_error(bench_doc):
    campaign_doc = {"campaign": {"devices": 5}}
    assert compare_to_baseline(bench_doc, campaign_doc) \
        == ["baseline or current results carry no campaign section"]
    assert compare_to_baseline(campaign_doc, bench_doc) \
        == ["baseline or current results carry no campaign section"]


def test_cli_swarm_writes_and_gates(tmp_path, capsys):
    out = str(tmp_path / "BENCH_server.json")
    rc = main(["swarm", "--sessions", "40", "--concurrency", "16",
               "--image-size", "4096", "--chunk-bytes", "1024",
               "--out", out])
    assert rc == 0
    assert "swarm: 40 sessions (0 failed)" in capsys.readouterr().out
    assert main(["report", "--validate", out]) == 0
    # Gate the run against its own artifact: clean pass.
    rc = main(["swarm", "--sessions", "40", "--concurrency", "16",
               "--image-size", "4096", "--chunk-bytes", "1024",
               "--out", str(tmp_path / "fresh.json"),
               "--baseline", out, "--tolerance", "5.0"])
    assert rc == 0
    assert "within" in capsys.readouterr().out


def test_cli_swarm_fails_on_workload_mismatched_baseline(tmp_path,
                                                         capsys):
    baseline = str(tmp_path / "baseline.json")
    rc = main(["swarm", "--sessions", "20", "--concurrency", "8",
               "--image-size", "4096", "--chunk-bytes", "1024",
               "--out", baseline])
    assert rc == 0
    capsys.readouterr()
    rc = main(["swarm", "--sessions", "30", "--concurrency", "8",
               "--image-size", "4096", "--chunk-bytes", "1024",
               "--out", str(tmp_path / "fresh.json"),
               "--baseline", baseline])
    assert rc == 1
    assert "REGRESSION:" in capsys.readouterr().out


def test_mid_body_close_is_a_session_failure_not_an_abort():
    """A server that dies between chunk frames makes the chunk-size
    readline return b''; that must surface as SwarmError (which
    ``run_swarm`` counts as one failed session), not an uncaught
    ValueError that detonates the whole gather."""
    async def main():
        client = swarm.SwarmHttpClient("127.0.0.1", 1)
        reader = asyncio.StreamReader()
        reader.feed_data(b"HTTP/1.1 200 OK\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n"
                         b"4\r\nabcd\r\n")      # one chunk lands...
        reader.feed_eof()                       # ...then the peer dies
        client._reader = reader
        with pytest.raises(swarm.SwarmError):
            await client._read_response()

    asyncio.run(main())


# -- acceptance scale (opt-in) ------------------------------------------------


@pytest.mark.serve
def test_ten_thousand_session_swarm_is_fully_correct(tmp_path):
    """The acceptance run: 10k sessions, zero failures, artifact
    accepted by validate and self-gating — and the convoy stays
    dead: ≥3,500 req/s, manifest p50 under 100 ms, and every control
    endpoint's p99 within 3x of its p50."""
    doc = swarm.run_benchmark(sessions=10_000, concurrency=256,
                              image_size=8192, chunk_bytes=2048)
    server = doc["server"]
    assert server["failed_sessions"] == 0
    assert server["sessions"] == 10_000
    assert server["req_per_s"] >= 3_500
    endpoints = server["endpoints"]
    assert endpoints["manifest"]["p50_ms"] < 100.0
    for cls in ("register", "token", "report"):
        entry = endpoints[cls]
        assert entry["p99_ms"] <= 3.0 * entry["p50_ms"], (cls, entry)
    path = str(tmp_path / "BENCH_server.json")
    swarm.write_results(copy.deepcopy(doc), path)
    assert main(["report", "--validate", path]) == 0
    assert compare_to_baseline(doc, doc) == []

"""The protocol-agnostic service layer: registry, tokens, ranges.

Everything here runs below both protocol faces — these are the
behaviours the HTTP and CoAP tests then prove survive their codecs
unchanged: single-use tokens, the range contract (zero-length,
past-EOF, truncation, overlap re-requests), channel publication, and
campaign spec validation.
"""

from __future__ import annotations

import pytest

from repro.serve import CHANNELS, CampaignSpec, FleetService, \
    ServiceError

DEVICE = 0x5EED0001


def service(image_size=4096, chunk_size=512):
    svc = FleetService(chunk_size=chunk_size)
    svc.seed_channels(image_size=image_size)
    return svc


def register(svc, device_id=DEVICE, channel="stable", current=1):
    return svc.register_device({"device_id": device_id,
                                "channel": channel,
                                "current_version": current})


def err(call, *args, **kwargs):
    with pytest.raises(ServiceError) as exc:
        call(*args, **kwargs)
    return exc.value


# -- channels -----------------------------------------------------------------


def test_seed_channels_is_idempotent_and_staggered():
    svc = service()
    svc.seed_channels(image_size=4096)     # second seed: no fault
    status = svc.channel_status()
    assert set(status) == set(CHANNELS)
    assert status["stable"]["latest_version"] == 2
    assert status["developer"]["latest_version"] == 3


def test_reseed_rebuilds_a_channel_that_lost_versions():
    """Regression: the releases dict used to be keyed off versions
    missing from the *developer* channel alone, so a restarted server
    whose stable channel lost its releases while developer stayed
    fully seeded crashed with a KeyError instead of re-publishing."""
    from repro.core import UpdateServer

    svc = service()
    identity = svc.channels["stable"].identity
    svc.channels["stable"] = UpdateServer(
        identity, artifacts=svc.artifacts,
        sign_fn=svc.signer.signer_for(identity))
    svc.seed_channels(image_size=4096)     # KeyError before the fix
    status = svc.channel_status()
    assert status["stable"]["latest_version"] == 2
    assert status["developer"]["latest_version"] == 3


# -- device registry ----------------------------------------------------------


def test_register_validates_ids_channels_and_versions():
    svc = service()
    assert err(register, svc, device_id=0).code == "invalid-device-id"
    assert err(register, svc, device_id=1 << 32).code \
        == "invalid-device-id"
    assert err(register, svc, device_id="x").code \
        == "invalid-device-id"
    bad_channel = err(register, svc, channel="nightly")
    assert (bad_channel.code, bad_channel.status) \
        == ("unknown-channel", 404)
    assert err(register, svc, current=1 << 16).code \
        == "invalid-version"


def test_reregistration_never_resets_the_nonce_counter():
    svc = service()
    register(svc)
    first = svc.issue_token(DEVICE)
    svc.close_token(first["token"], {"status": "failed"})
    # The device factory-resets and re-registers: the counter must
    # keep moving forward, or the old token's nonce could come back.
    entry = register(svc)
    assert entry["nonce"] == first["nonce"]
    second = svc.issue_token(DEVICE)
    assert second["nonce"] == first["nonce"] + 1
    assert second["token"] != first["token"]


def test_device_status_roundtrip_and_unknown_404():
    svc = service()
    register(svc, current=1)
    assert svc.device_status(DEVICE)["current_version"] == 1
    assert err(svc.device_status, DEVICE + 1).status == 404


# -- token lifecycle ----------------------------------------------------------


def test_token_is_single_open_per_device_and_version():
    svc = service()
    register(svc)
    issued = svc.issue_token(DEVICE)
    assert issued["target_version"] == 2
    outstanding = err(svc.issue_token, DEVICE)
    assert (outstanding.code, outstanding.status) \
        == ("token-outstanding", 409)
    # Closing the token frees the slot for a retry.
    svc.close_token(issued["token"], {"status": "failed"})
    assert svc.issue_token(DEVICE)["nonce"] == issued["nonce"] + 1


def test_up_to_date_devices_get_a_409_not_a_token():
    svc = service()
    register(svc, current=2)
    assert err(svc.issue_token, DEVICE).code == "up-to-date"
    # The developer channel is one release ahead, so the same device
    # version is updatable there.
    other = DEVICE + 1
    register(svc, device_id=other, channel="developer", current=2)
    assert svc.issue_token(other)["target_version"] == 3


def test_successful_report_bumps_version_and_burns_token():
    svc = service()
    register(svc)
    token = svc.issue_token(DEVICE)["token"]
    manifest = svc.resolve_manifest(token)
    data, total = svc.read_chunk(token, 0, None)
    assert len(data) == total == manifest["payload_size"]
    ack = svc.close_token(token, {"status": "updated"})
    assert ack["acknowledged"] is True
    assert svc.device_status(DEVICE)["current_version"] == 2
    # Every replay of the burnt token is a structured 403.
    for call in (svc.resolve_manifest,
                 lambda t: svc.read_chunk(t, 0, 16),
                 lambda t: svc.close_token(t, {"status": "updated"})):
        replay = err(call, token)
        assert (replay.code, replay.status) == ("token-replayed", 403)
    assert svc.metrics.counter("serve.token_replays").to_value() == 3


def test_manifest_is_idempotent_while_open():
    svc = service()
    register(svc)
    token = svc.issue_token(DEVICE)["token"]
    first = svc.resolve_manifest(token)
    second = svc.resolve_manifest(token)
    assert first == second
    assert first["payload_sha256"] == second["payload_sha256"]


def test_report_status_is_validated():
    svc = service()
    register(svc)
    token = svc.issue_token(DEVICE)["token"]
    assert err(svc.close_token, token, {"status": "maybe"}).code \
        == "invalid-report"
    assert err(svc.close_token, token, "nope").code == "invalid-body"
    # The failed report does not move the device forward.
    svc.close_token(token, {"status": "failed"})
    assert svc.device_status(DEVICE)["current_version"] == 1


# -- the range contract (satellite: chunk edge cases) -------------------------


@pytest.fixture()
def prepared():
    svc = service(image_size=4096, chunk_size=512)
    register(svc)
    token = svc.issue_token(DEVICE)["token"]
    svc.resolve_manifest(token)
    _full, total = svc.read_chunk(token, 0, None)
    return svc, token, total


def test_chunks_require_a_resolved_manifest():
    svc = service()
    register(svc)
    token = svc.issue_token(DEVICE)["token"]
    not_ready = err(svc.read_chunk, token, 0, 16)
    assert (not_ready.code, not_ready.status) == ("not-prepared", 409)


def test_zero_length_range_is_satisfiable_up_to_eof(prepared):
    svc, token, total = prepared
    for offset in (0, 1, total - 1, total):
        data, reported = svc.read_chunk(token, offset, 0)
        assert data == b"" and reported == total
    past = err(svc.read_chunk, token, total + 1, 0)
    assert (past.code, past.status) == ("range-unsatisfiable", 416)


def test_nonzero_range_at_or_past_eof_is_416(prepared):
    svc, token, total = prepared
    for offset in (total, total + 1, total * 10):
        past = err(svc.read_chunk, token, offset, 16)
        assert (past.code, past.status) == ("range-unsatisfiable", 416)


def test_range_ending_past_eof_truncates(prepared):
    svc, token, total = prepared
    data, _ = svc.read_chunk(token, total - 10, 4096)
    assert len(data) == 10
    full, _ = svc.read_chunk(token, 0, None)
    assert data == full[-10:]


def test_overlapping_rerequest_after_disconnect_is_identical(prepared):
    """A transport resuming mid-image re-reads an overlapping range;
    the bytes must match the first read exactly."""
    svc, token, total = prepared
    first, _ = svc.read_chunk(token, 0, 1024)
    resumed, _ = svc.read_chunk(token, 512, 1024)
    assert resumed[:512] == first[512:1024]
    again, _ = svc.read_chunk(token, 0, 1024)
    assert again == first


def test_negative_offset_or_length_is_400(prepared):
    svc, token, _total = prepared
    assert err(svc.read_chunk, token, -1, 16).code == "invalid-range"
    assert err(svc.read_chunk, token, 0, -1).code == "invalid-range"


# -- campaign specs -----------------------------------------------------------


def test_campaign_spec_validation():
    assert CampaignSpec.from_dict({"name": "ok-1"}).devices == 8
    cases = [
        ({}, "needs a 'name'"),
        ({"name": "bad name"}, "name must be"),
        ({"name": "x", "devices": 0}, "devices"),
        ({"name": "x", "image_size": 16}, "image_size"),
        ({"name": "x", "channel": "nightly"}, "channel"),
        ({"name": "x", "bogus": 1}, "unknown spec keys"),
        ("not-a-dict", "JSON object"),
    ]
    for body, fragment in cases:
        with pytest.raises(ServiceError) as exc:
            CampaignSpec.from_dict(body)
        assert exc.value.code == "invalid-spec"
        assert fragment in exc.value.detail


def test_campaign_create_runs_to_done_and_rejects_duplicates():
    svc = FleetService()
    status = svc.create_campaign({"name": "demo", "devices": 4,
                                  "image_size": 2048, "wait": True})
    assert status["state"] == "done"
    assert len(status["report"]["updated"]) == 4
    assert status["slo"]["verdict"] == "ok"
    duplicate = err(svc.create_campaign, {"name": "demo"})
    assert (duplicate.code, duplicate.status) \
        == ("campaign-exists", 409)
    assert err(svc.campaign_status, "nope").status == 404


def test_slo_pause_is_visible_and_refresh_merges_the_report():
    """An impossible p95 target pauses after the canary; the status
    endpoint shows the PAUSE verdict; a clear-slos refresh re-drives
    the remainder and the merged report covers the whole fleet."""
    svc = FleetService()
    status = svc.create_campaign(
        {"name": "slo", "devices": 8, "image_size": 2048,
         "slo_p95_seconds": 0.0001, "wait": True})
    assert status["state"] == "paused"
    assert status["slo"]["verdict"] == "breached"
    assert "pause" in status["slo"]["wave_actions"]
    assert len(status["report"]["updated"]) == 2      # the canary
    assert len(status["report"]["pending"]) == 6
    refreshed = svc.refresh_campaign(
        "slo", {"clear_slos": True, "wait": True})
    assert refreshed["state"] == "done"
    assert refreshed["refreshes"] == 1
    report = refreshed["report"]
    assert len(report["updated"]) == 8
    assert report["pending"] == []
    assert report["success_rate"] == 1.0


def test_journaled_pause_refuses_in_place_refresh(tmp_path):
    svc = FleetService(journal_dir=str(tmp_path))
    status = svc.create_campaign(
        {"name": "sealed", "devices": 4, "image_size": 2048,
         "slo_p95_seconds": 0.0001, "wait": True})
    assert status["state"] == "paused"
    sealed = err(svc.refresh_campaign, "sealed", {"clear_slos": True})
    assert (sealed.code, sealed.status) == ("refresh-journaled", 409)


def test_delete_campaign_clears_persisted_state(tmp_path):
    svc = FleetService(journal_dir=str(tmp_path))
    svc.create_campaign({"name": "gone", "devices": 2,
                         "image_size": 2048, "wait": True})
    assert (tmp_path / "gone.spec.json").exists()
    assert (tmp_path / "gone.journal").exists()
    svc.delete_campaign("gone")
    assert not (tmp_path / "gone.spec.json").exists()
    assert not (tmp_path / "gone.journal").exists()
    assert err(svc.campaign_status, "gone").status == 404


def test_openmetrics_document_covers_service_and_channels():
    svc = service()
    register(svc)
    svc.issue_token(DEVICE)
    text = svc.openmetrics()
    assert text.endswith("# EOF\n")
    assert 'device="service"' in text
    assert 'device="channel-stable"' in text
    assert "upkit_serve_requests_total" in text


# -- memory per served session ------------------------------------------------


def test_closed_sessions_retain_only_their_bookkeeping():
    """A closed token keeps neither its preparation Event nor payload
    state: about 2,980 B per closed session here with the Event and the
    digest kept on the record, about 1,670 B without them."""
    import gc
    import tracemalloc

    from repro.crypto import use_engine

    svc = service(image_size=4096, chunk_size=512)

    def session(device_id):
        register(svc, device_id=device_id)
        token = svc.issue_token(device_id)["token"]
        svc.resolve_manifest_encoded(token)
        svc.read_chunk(token, 0, 512)
        svc.close_token(token, {"status": "updated"})

    sessions = 300
    with use_engine("fast"):
        for device_id in range(1, 101):          # warm every cache
            session(device_id)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for device_id in range(1000, 1000 + sessions):
                session(device_id)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert retained / sessions < 2200, retained / sessions

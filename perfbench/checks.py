"""Correctness checks made inside every run.

Pull sessions: the payload's SHA-256 matches the manifest and the
seeded v2 image, every token and every (device, nonce) pair is used
once, and each collected envelope passes vendor and server signature
verification against the trust anchors and is bound to its session.

Rollout: every device boots v2 and its running slot holds exactly the
v2 image; the campaign report digest is a pure function of the seed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from .loadgen import Session


class PullChecker:
    """Checks sessions as they are handed in; keeps the counts."""

    def __init__(self, firmware: bytes, target_version: int = 2) -> None:
        from repro.core import make_test_identities

        self.firmware_sha256 = hashlib.sha256(firmware).hexdigest()
        self.size = len(firmware)
        self.target_version = target_version
        self.anchors = make_test_identities()[2]
        self._tokens: set = set()
        self._pairs: set = set()
        self.counts = {"payloads": 0, "tokens": 0, "envelopes": 0}

    def check_session(self, s: Session) -> List[str]:
        """Problems with one session's payload and token (cheap: runs
        for every session)."""
        if s.error:
            return [s.error]
        problems = []
        self.counts["payloads"] += 1
        if s.received_sha256 != s.manifest_sha256:
            problems.append("payload digest differs from the manifest")
        if s.received_sha256 != self.firmware_sha256 \
                or s.received_size != self.size:
            problems.append("payload is not the published image")
        if s.version != self.target_version:
            problems.append("manifest names version %d" % s.version)
        if not s.reported:
            problems.append("outcome never reported")
        self.counts["tokens"] += 1
        if s.token in self._tokens:
            problems.append("token reused")
        if (s.device_id, s.nonce) in self._pairs:
            problems.append("(device, nonce) pair reused")
        self._tokens.add(s.token)
        self._pairs.add((s.device_id, s.nonce))
        return problems

    def check_envelope(self, s: Session, verifier) -> List[str]:
        """Signature verification and token binding of one envelope
        (ECDSA: run after the timed window)."""
        from repro.core.errors import UpdateError
        from repro.core.image import SignedManifest

        self.counts["envelopes"] += 1
        try:
            envelope = SignedManifest.unpack(bytes.fromhex(s.envelope))
            verifier.verify_signatures(envelope)
        except (UpdateError, ValueError) as exc:
            return ["envelope rejected: %s: %s" % (type(exc).__name__, exc)]
        manifest = envelope.manifest
        problems = []
        if (manifest.device_id, manifest.nonce) != (s.device_id, s.nonce):
            problems.append("envelope bound to another token")
        if manifest.version != self.target_version \
                or manifest.payload_size != self.size \
                or manifest.digest.hex() != self.firmware_sha256:
            problems.append("envelope describes another image")
        return problems

    def verifier(self):
        from repro.core.verifier import Verifier
        from repro.crypto import get_backend

        return Verifier(self.anchors, get_backend("tinycrypt"))

    def check_all(self, sessions: List[Session]) -> int:
        """Check every session; returns how many failed."""
        verifier = self.verifier()
        failed = 0
        for s in sessions:
            problems = self.check_session(s)
            if not problems:
                problems = self.check_envelope(s, verifier)
            if problems:
                s.error = s.error or "; ".join(problems)
                failed += 1
        return failed


def report_digest(report) -> str:
    """SHA-256 of a ``CampaignReport``'s canonical JSON."""
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True)
                          .encode("utf-8")).hexdigest()


def check_rollout(report, fleet, firmware: bytes,
                  expected_digest: Optional[str]) -> Dict[str, object]:
    """Per-device boot and slot checks plus the report digest.

    Returns ``{"failed": n, "devices": n, "digest": sha, ...}`` where a
    device fails when it did not boot ``report.target_version`` or
    its running slot does not hold ``firmware`` byte for byte."""
    from repro.core.image import ENVELOPE_SIZE

    wanted = hashlib.sha256(firmware).digest()
    updated = set(report.updated)
    failed = 0
    for record in fleet:
        device = record.device
        slot = device.agent.running_slot()
        ok = (record.name in updated
              and device.installed_version() == report.target_version
              and slot is not None
              and hashlib.sha256(slot.read(ENVELOPE_SIZE, len(firmware)))
              .digest() == wanted)
        failed += not ok
    digest = report_digest(report)
    return {"failed": failed, "devices": len(fleet), "digest": digest,
            "digest_ok": expected_digest in (None, digest)}

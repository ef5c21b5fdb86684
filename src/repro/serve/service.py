"""The fleet service layer: one brain behind every protocol face.

UpKit's server in the paper is a network endpoint: devices register,
request a single-use token, resolve a manifest for their channel, pull
the image in ranged chunks, and report the outcome.  This module is
that endpoint's *protocol-agnostic* core — :class:`FleetService` owns
the device registry, the token lifecycle, the stable/developer release
channels, chunked image serving out of the content-addressed artifact
store, and campaign CRUD over the crash-safe ``fleet/campaign.py``
machinery.  The HTTP face (:mod:`repro.serve.httpd`) and the simulated
CoAP face (:mod:`repro.serve.coapface`) are thin codecs over it: every
behaviour — single-use tokens, range semantics, WAL-backed campaign
resume, SLO verdict visibility — lives here exactly once, which is
what makes the two faces provably equivalent (the protocol-parity
tests compare their device-visible bytes).

Token lifecycle (single-use, enforced server-side)::

    issue_token  ->  ISSUED  --resolve_manifest-->  PREPARING
                                                       |
                               (ECDSA runs OUTSIDE the registry lock;
                                concurrent re-fetches await the
                                in-flight result)
                                                       v
                                                   PREPARED
                                                       |
                 chunk reads (any ranges, re-requests) |
                                                       v
                               report  ->  CLOSED  (replay => 403)

Only one token may be *open* (ISSUED, PREPARING or PREPARED) per
(device, target version) at a time: a concurrent second request races
on one lock and loses with a structured 409, no matter which protocol
face it arrived through.

The registry lock guards only short critical sections (table lookups
and state flips).  The expensive work — the P-256 envelope signature
in ``UpdateServer.prepare_update`` — runs outside it, through the
:mod:`repro.serve.signing` pool's shared fast engine, so a wave of
token resolutions never convoys registers and reports behind scalar
multiplication (that convoy was the whole serve-plane latency story
before: manifest p50 at 684 ms dragging every other endpoint's p99 to
~800 ms).

Crash model: :class:`DeviceFarm` is the simulation's stand-in for the
physical world — devices and their flash survive a service-process
crash; only the coordinator's RAM (token table, campaign threads)
dies.  A campaign created through the API journals to
``journal_dir/<name>.journal`` with its spec alongside, so a *fresh*
:class:`FleetService` over the same farm and journal directory resumes
it byte-identically (PR 7's invariants, now held through the network
layer).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Callable, Dict, List, Optional, Tuple

from ..core import (
    DeviceProfile,
    make_test_identities,
    provision_device,
)
from ..core.server import UpdateServer
from ..core.token import NO_DIFF_SUPPORT, DeviceToken
from ..core.vendor import VendorServer
from ..delta import ArtifactCache
from ..fleet import (
    Campaign,
    CampaignJournal,
    CoordinatorKilled,
    DeviceRecord,
    RetryGovernor,
    RetryPolicy,
    RolloutPolicy,
)
from ..memory import MemoryLayout
from ..net.transports import TransportRetryPolicy
from ..obs import (
    Action,
    FleetTelemetry,
    MetricsRegistry,
    SLO,
    bind_server,
)
from ..platform import NRF52840, ZEPHYR
from ..sim import SimulatedDevice
from ..workload import FirmwareGenerator
from .signing import SignerPool, shared_signer_pool

__all__ = [
    "APP_ID",
    "CHANNELS",
    "CampaignSpec",
    "DeviceFarm",
    "FleetService",
    "ServiceError",
]

APP_ID = 0x55504B49          # "UPKI"
LINK_OFFSET = 0x8000
CHANNELS = ("stable", "developer")

#: Token lifecycle states (see module docstring).
TOKEN_ISSUED = "issued"
TOKEN_PREPARING = "preparing"
TOKEN_PREPARED = "prepared"
TOKEN_CLOSED = "closed"


class ServiceError(Exception):
    """A client-visible failure with a protocol-mappable status.

    ``status`` uses HTTP semantics (400/403/404/409/416); the CoAP
    face maps it onto the closest 4.xx response code.  ``to_body``
    is the structured error body both faces serialize verbatim.
    """

    def __init__(self, code: str, status: int, detail: str) -> None:
        super().__init__("%s: %s" % (code, detail))
        self.code = code
        self.status = status
        self.detail = detail

    def to_body(self) -> Dict[str, object]:
        return {"error": {"code": self.code, "status": self.status,
                          "detail": self.detail}}


# -- campaign specs ------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    """A network-created campaign, as the JSON body that created it.

    The spec is the *complete* recipe: fleets, firmware and releases
    derive deterministically from it, so persisting the spec next to
    the journal is all a resurrected service needs to rebuild the
    world and replay the WAL.
    """

    name: str
    devices: int = 8
    image_size: int = 8 * 1024
    channel: str = "stable"
    canary_fraction: float = 0.25
    max_attempts: int = 2
    governed: bool = True
    #: Optional PAUSE threshold (virtual seconds) for the
    #: ``p95_update_seconds`` fleet metric; None keeps the stock SLOs.
    slo_p95_seconds: Optional[float] = None

    _FIELDS = ("name", "devices", "image_size", "channel",
               "canary_fraction", "max_attempts", "governed",
               "slo_p95_seconds")

    def __post_init__(self) -> None:
        if not self.name or not all(
                ch.isalnum() or ch in "-_" for ch in self.name):
            raise ServiceError("invalid-spec", 400,
                               "campaign name must be [a-zA-Z0-9_-]+")
        if not (1 <= self.devices <= 100_000):
            raise ServiceError("invalid-spec", 400,
                               "devices must be in [1, 100000]")
        if self.image_size < 1024:
            raise ServiceError("invalid-spec", 400,
                               "image_size must be at least 1024")
        if self.channel not in CHANNELS:
            raise ServiceError("invalid-spec", 400,
                               "channel must be one of %s"
                               % (CHANNELS,))

    @classmethod
    def from_dict(cls, body: Dict[str, object]) -> "CampaignSpec":
        if not isinstance(body, dict):
            raise ServiceError("invalid-spec", 400,
                               "campaign spec must be a JSON object")
        unknown = set(body) - set(cls._FIELDS) - {"wait", "clear_slos"}
        if unknown:
            raise ServiceError("invalid-spec", 400,
                               "unknown spec keys: %s"
                               % ", ".join(sorted(unknown)))
        if "name" not in body:
            raise ServiceError("invalid-spec", 400,
                               "campaign spec needs a 'name'")
        kwargs = {key: body[key] for key in cls._FIELDS if key in body}
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ServiceError("invalid-spec", 400, str(exc))

    def to_dict(self) -> Dict[str, object]:
        return {key: getattr(self, key) for key in self._FIELDS}


# -- the simulated physical world ---------------------------------------------


class DeviceFarm:
    """Deterministic device fleets that outlive the service process.

    One farm entry per campaign name: the update server, vendor
    releases and hydrated :class:`~repro.fleet.campaign.DeviceRecord`
    fleet, all derived from the :class:`CampaignSpec` alone.  A
    service restart hands the *same* farm to a fresh
    :class:`FleetService`; because device flash lives here, a resumed
    campaign sees exactly the world the crashed coordinator left
    behind — which is what PR 7's resume contract requires.
    """

    def __init__(self) -> None:
        self._worlds: Dict[str, Tuple[CampaignSpec, UpdateServer,
                                      List[DeviceRecord]]] = {}
        self._lock = threading.Lock()

    def world(self, spec: CampaignSpec
              ) -> Tuple[UpdateServer, List[DeviceRecord]]:
        with self._lock:
            cached = self._worlds.get(spec.name)
            if cached is not None:
                if cached[0] != spec:
                    raise ServiceError(
                        "campaign-exists", 409,
                        "campaign %r already exists with a different "
                        "spec" % spec.name)
                return cached[1], cached[2]
            server, fleet = self._build(spec)
            self._worlds[spec.name] = (spec, server, fleet)
            return server, fleet

    @staticmethod
    def _build(spec: CampaignSpec
               ) -> Tuple[UpdateServer, List[DeviceRecord]]:
        generator = FirmwareGenerator(
            seed=b"serve-" + spec.name.encode("utf-8"))
        base = generator.firmware(spec.image_size, image_id=1)
        new = generator.os_version_change(base, revision=2)
        vendor_id, server_identity, anchors = make_test_identities()
        vendor = VendorServer(vendor_id, app_id=APP_ID,
                              link_offset=LINK_OFFSET)
        server = UpdateServer(server_identity)
        server.publish(vendor.release(base, 1))
        fleet: List[DeviceRecord] = []
        for index in range(spec.devices):
            internal = NRF52840.make_internal_flash()
            layout = MemoryLayout.configuration_a(internal, 64 * 1024)
            profile = DeviceProfile(
                device_id=0x5E000000 + index, app_id=APP_ID,
                link_offset=LINK_OFFSET, supports_differential=False)
            device = SimulatedDevice(board=NRF52840, os_profile=ZEPHYR,
                                     layout=layout, profile=profile,
                                     anchors=anchors)
            provision_device(server, layout.get("a"),
                             profile.device_id)
            fleet.append(DeviceRecord(
                name="%s-%03d" % (spec.name, index), device=device,
                transport="pull" if index % 2 else "push"))
        server.publish(vendor.release(new, 2))
        return server, fleet


# -- token + campaign bookkeeping ---------------------------------------------


@dataclass
class _TokenRecord:
    token: DeviceToken
    device_id: int
    version: int
    channel: str
    state: str = TOKEN_ISSUED
    envelope: bytes = b""
    payload: bytes = b""
    #: Manifest document + its canonical JSON, cached at PREPARED so
    #: re-fetches and both protocol faces serve pre-serialized bytes.
    manifest: Optional[Dict[str, object]] = None
    manifest_bytes: bytes = b""
    #: Set by the thread that owns the PREPARING transition; concurrent
    #: resolutions of the same token wait on it instead of re-signing.
    #: Only a PREPARING token holds one: waiters keep their own
    #: reference, so the record drops it once preparation ends.
    ready: Optional[threading.Event] = None


@dataclass
class _CampaignRun:
    spec: CampaignSpec
    journal: CampaignJournal
    campaign: Campaign
    server: UpdateServer
    fleet: List[DeviceRecord]
    telemetry: FleetTelemetry
    state: str = "running"
    report: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    refreshes: int = 0
    thread: Optional[threading.Thread] = None


class FleetService:
    """Everything the protocol faces expose, in one object.

    Thread model: HTTP/CoAP handlers call in from the event loop
    thread or the signer pool's workers; campaign runs execute on
    worker threads.  One short-critical-section lock guards the
    registry/token tables — the single-use token guarantee is this
    lock, not any property of a particular transport.  Expensive work
    (the envelope signature) happens *outside* the lock under the
    per-token PREPARING state, so the lock is never held across
    scalar multiplication.
    """

    #: Upper bound on a ``wait: true`` campaign join; callers holding
    #: a network thread get control back and poll status instead.
    WAIT_TIMEOUT_SECONDS = 600.0

    #: Upper bound on awaiting another thread's in-flight manifest
    #: preparation before giving up with a 503.
    PREPARE_TIMEOUT_SECONDS = 60.0

    def __init__(self, farm: Optional[DeviceFarm] = None,
                 journal_dir: Optional[str] = None,
                 chunk_size: int = 2048,
                 signer: Optional[SignerPool] = None) -> None:
        if chunk_size < 16:
            raise ValueError("chunk_size must be at least 16")
        self.farm = farm or DeviceFarm()
        self.journal_dir = journal_dir
        self.chunk_size = chunk_size
        self.metrics = MetricsRegistry()
        self.artifacts = ArtifactCache()
        #: Dedicated ECDSA executor shared with the protocol faces;
        #: channel servers sign through its shared fast engine and
        #: single-flight signature cache.
        self.signer = signer or shared_signer_pool()
        vendor_id, identity, anchors = make_test_identities()
        self.anchors = anchors
        self._vendor = VendorServer(vendor_id, app_id=APP_ID,
                                    link_offset=LINK_OFFSET)
        self.channels: Dict[str, UpdateServer] = {
            name: UpdateServer(identity, artifacts=self.artifacts,
                               sign_fn=self.signer.signer_for(identity))
            for name in CHANNELS}
        self._channel_registries: Dict[str, MetricsRegistry] = {}
        for name, server in self.channels.items():
            registry = MetricsRegistry()
            bind_server(registry, server)
            self._channel_registries[name] = registry
        self._lock = threading.Lock()
        self._devices: Dict[int, Dict[str, object]] = {}
        self._tokens: Dict[str, _TokenRecord] = {}
        self._open: Dict[Tuple[int, int], str] = {}
        self._campaigns: Dict[str, _CampaignRun] = {}
        self._requests = self.metrics.counter(
            "serve.requests", "service calls handled")
        self._errors = self.metrics.counter(
            "serve.errors", "service calls rejected")
        self._sessions = self.metrics.counter(
            "serve.sessions_closed", "tokens closed by a report")
        self._replays = self.metrics.counter(
            "serve.token_replays", "closed tokens replayed")
        if journal_dir:
            os.makedirs(journal_dir, exist_ok=True)

    # -- channels --------------------------------------------------------------

    def seed_channels(self, image_size: int = 8 * 1024) -> None:
        """Publish the demo release train: v1+v2 on stable, +v3 dev.

        Idempotent — already-published versions are skipped, so a
        restarted server can re-seed without faulting."""
        generator = FirmwareGenerator(seed=b"serve-channels")
        base = generator.firmware(image_size, image_id=1)
        v2 = generator.os_version_change(base, revision=2)
        v3 = generator.os_version_change(base, revision=3)
        train = {name: (1, 2) for name in CHANNELS}
        train["developer"] = (1, 2, 3)
        # Build a release for every version missing from *any* channel:
        # keying off one channel alone (the old behaviour keyed off
        # "developer") crashed a restarted server whose stable channel
        # lost a version its developer channel still had.
        needed = {version
                  for name, versions in train.items()
                  for version in versions
                  if not self.channels[name].has_release(version)}
        # The vendor refuses to re-mint a version, so a re-seed reuses
        # its recorded release (deterministic signing makes it the
        # identical artifact anyway).
        releases = {version: (self._vendor.get_release(version)
                              if version in self._vendor.versions
                              else self._vendor.release(firmware,
                                                        version))
                    for version, firmware
                    in ((1, base), (2, v2), (3, v3))
                    if version in needed}
        for name, versions in train.items():
            server = self.channels[name]
            for version in versions:
                if not server.has_release(version):
                    server.publish(releases[version])

    def channel_status(self) -> Dict[str, object]:
        return {name: {"latest_version": server.latest_version,
                       "stats": server.stats.to_dict()}
                for name, server in self.channels.items()}

    # -- device registry -------------------------------------------------------

    def register_device(self, body: Dict[str, object]
                        ) -> Dict[str, object]:
        self._requests.inc()
        if not isinstance(body, dict):
            raise self._reject("invalid-body", 400,
                               "registration must be a JSON object")
        device_id = body.get("device_id")
        if not isinstance(device_id, int) or not (
                0 < device_id < 1 << 32):
            raise self._reject("invalid-device-id", 400,
                               "device_id must be a 32-bit integer")
        channel = body.get("channel", "stable")
        if channel not in self.channels:
            raise self._reject("unknown-channel", 404,
                               "no channel %r (have: %s)"
                               % (channel, ", ".join(CHANNELS)))
        current = body.get("current_version", 1)
        if not isinstance(current, int) or not (0 <= current < 1 << 16):
            raise self._reject("invalid-version", 400,
                               "current_version must be a 16-bit "
                               "integer")
        with self._lock:
            entry = self._devices.get(device_id)
            if entry is None:
                # The nonce counter starts at the factory sentinel and
                # only ever moves forward — re-registration must never
                # resurrect an already-spent token nonce.
                entry = {"device_id": device_id, "nonce": 0}
                self._devices[device_id] = entry
            entry["channel"] = channel
            entry["current_version"] = current
            return dict(entry)

    def device_status(self, device_id: int) -> Dict[str, object]:
        self._requests.inc()
        with self._lock:
            entry = self._devices.get(device_id)
            if entry is None:
                raise self._reject("unknown-device", 404,
                                   "device %d is not registered"
                                   % device_id)
            return dict(entry)

    def device_count(self) -> int:
        with self._lock:
            return len(self._devices)

    # -- token lifecycle -------------------------------------------------------

    def issue_token(self, device_id: int,
                    supports_differential: bool = False
                    ) -> Dict[str, object]:
        """Issue the single open token for (device, latest version).

        The whole check-and-issue runs under one lock: when two
        requests race — two HTTP connections, or HTTP against CoAP —
        exactly one wins; the other gets a structured 409.
        """
        self._requests.inc()
        with self._lock:
            entry = self._devices.get(device_id)
            if entry is None:
                raise self._reject("unknown-device", 404,
                                   "device %d is not registered"
                                   % device_id)
            server = self.channels[entry["channel"]]
            target = server.latest_version
            current = int(entry["current_version"])  # type: ignore
            if target <= current:
                raise self._reject(
                    "up-to-date", 409,
                    "device %d already runs version %d (channel "
                    "latest is %d)" % (device_id, current, target))
            key = (device_id, target)
            if key in self._open:
                raise self._reject(
                    "token-outstanding", 409,
                    "device %d already holds an open token for "
                    "version %d" % (device_id, target))
            nonce = int(entry["nonce"]) + 1  # type: ignore
            entry["nonce"] = nonce
            token = DeviceToken(
                device_id=device_id, nonce=nonce,
                current_version=(current if supports_differential
                                 else NO_DIFF_SUPPORT))
            token_hex = token.pack().hex()
            self._tokens[token_hex] = _TokenRecord(
                token=token, device_id=device_id, version=target,
                channel=str(entry["channel"]))
            self._open[key] = token_hex
            return {"token": token_hex, "nonce": nonce,
                    "target_version": target,
                    "channel": entry["channel"]}

    def _token_record(self, token_hex: str) -> _TokenRecord:
        record = self._tokens.get(token_hex)
        if record is None:
            raise self._reject("unknown-token", 404,
                               "no such token")
        if record.state == TOKEN_CLOSED:
            self._replays.inc()
            raise self._reject(
                "token-replayed", 403,
                "token for device %d was already used for version %d"
                % (record.device_id, record.version))
        return record

    def resolve_manifest(self, token_hex: str) -> Dict[str, object]:
        """Bind the token into a double-signed manifest (idempotent
        while the token is open — a device may re-fetch after a
        disconnect without burning its single use).

        The registry lock is held only to flip the token into
        PREPARING; the signature itself runs outside it.  Concurrent
        resolutions of the same token await the in-flight result
        instead of re-signing or blocking unrelated endpoints.
        """
        self._requests.inc()
        manifest, _ = self._prepare_token(token_hex)
        return dict(manifest)

    def resolve_manifest_encoded(self, token_hex: str) -> bytes:
        """:meth:`resolve_manifest` as canonical (sorted-keys) JSON
        bytes, pre-serialized once at PREPARED — the hot path both
        protocol faces write from without re-encoding per request."""
        self._requests.inc()
        _, encoded = self._prepare_token(token_hex)
        return encoded

    def _prepare_token(
            self, token_hex: str
    ) -> Tuple[Dict[str, object], bytes]:
        """Return the token's ``(manifest, canonical JSON)``, preparing
        it first if needed.  Exactly one caller runs
        ``prepare_update`` (the ECDSA work) for an ISSUED token — and
        runs it *outside* the registry lock."""
        while True:
            with self._lock:
                record = self._token_record(token_hex)
                if record.state == TOKEN_PREPARED:
                    assert record.manifest is not None
                    return record.manifest, record.manifest_bytes
                if record.state == TOKEN_PREPARING:
                    waiter = record.ready
                else:  # TOKEN_ISSUED: this thread becomes the preparer.
                    record.state = TOKEN_PREPARING
                    ready = record.ready = threading.Event()
                    waiter = None
                    server = self.channels[record.channel]
            if waiter is None:
                break
            if not waiter.wait(self.PREPARE_TIMEOUT_SECONDS):
                raise self._reject(
                    "prepare-timeout", 503,
                    "in-flight manifest preparation did not finish "
                    "within %.0f s" % self.PREPARE_TIMEOUT_SECONDS)
            # Re-examine under the lock: PREPARED returns the cached
            # result; a failed preparer reset the token to ISSUED (we
            # retry as the preparer); a concurrent close raises 403.
            continue
        try:
            image = server.prepare_update(record.token)
            envelope = image.envelope.pack()
            payload = self.artifacts.get_or_create(
                envelope, b"", b"serve:image-payload",
                lambda: image.payload)
            digest = sha256(payload).hexdigest()
        except BaseException:
            with self._lock:
                if record.state == TOKEN_PREPARING:
                    record.state = TOKEN_ISSUED
                    record.ready = None
            ready.set()          # waiters wake and retry as preparers
            raise
        manifest: Dict[str, object] = {
            "envelope": envelope.hex(),
            "version": record.version,
            "payload_size": len(payload),
            "payload_sha256": digest,
            "chunk_size": self.chunk_size,
        }
        encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
        with self._lock:
            if record.state == TOKEN_PREPARING:
                record.envelope = envelope
                record.payload = payload
                record.manifest = manifest
                record.manifest_bytes = encoded
                record.state = TOKEN_PREPARED
                record.ready = None
            # A concurrent close (report racing the resolve) wins: the
            # token stays CLOSED — never resurrected — but this caller
            # still gets the manifest its accepted request produced.
        ready.set()
        return manifest, encoded

    def read_chunk(self, token_hex: str, offset: int = 0,
                   length: Optional[int] = None
                   ) -> Tuple[memoryview, int]:
        """A byte range of the prepared payload: ``(data, total)``.

        Range semantics (shared verbatim by both faces): a negative
        offset/length is a 400; a zero-length range is satisfiable
        anywhere up to and including EOF; a nonzero range starting at
        or past EOF is a 416; a range *ending* past EOF truncates.
        Re-requesting an overlapping range is always allowed — that is
        how a transport resumes after a disconnect.

        The returned data is a :class:`memoryview` slice over the
        cached payload — zero-copy all the way to the socket; the view
        keeps the underlying bytes alive even if the token closes
        mid-transfer.
        """
        self._requests.inc()
        with self._lock:
            record = self._token_record(token_hex)
            if record.state != TOKEN_PREPARED:
                raise self._reject(
                    "not-prepared", 409,
                    "resolve the manifest before fetching chunks")
            envelope = record.envelope
            fallback = record.payload
        # Reads go through the content-addressed store (hits counted);
        # the token record keeps a strong reference so an LRU eviction
        # can never break an in-flight transfer.
        payload = self.artifacts.get_or_create(
            envelope, b"", b"serve:image-payload", lambda: fallback)
        total = len(payload)
        if offset < 0 or (length is not None and length < 0):
            raise self._reject("invalid-range", 400,
                               "offset and length must be >= 0")
        if length == 0:
            if offset > total:
                raise self._reject(
                    "range-unsatisfiable", 416,
                    "offset %d past end of %d-byte payload"
                    % (offset, total))
            return memoryview(b""), total
        if offset >= total:
            raise self._reject(
                "range-unsatisfiable", 416,
                "offset %d past end of %d-byte payload"
                % (offset, total))
        end = total if length is None else min(total, offset + length)
        return memoryview(payload)[offset:end], total

    def close_token(self, token_hex: str, body: Dict[str, object]
                    ) -> Dict[str, object]:
        """The device's outcome report burns the token."""
        self._requests.inc()
        if not isinstance(body, dict):
            raise self._reject("invalid-body", 400,
                               "report must be a JSON object")
        status = body.get("status")
        if status not in ("updated", "failed"):
            raise self._reject("invalid-report", 400,
                               "report status must be 'updated' or "
                               "'failed'")
        with self._lock:
            record = self._token_record(token_hex)
            record.state = TOKEN_CLOSED
            record.envelope = b""
            record.payload = b""
            record.manifest = None
            record.manifest_bytes = b""
            record.ready = None
            self._open.pop((record.device_id, record.version), None)
            entry = self._devices.get(record.device_id)
            if status == "updated" and entry is not None:
                entry["current_version"] = record.version
            self._sessions.inc()
            return {"device_id": record.device_id,
                    "version": record.version, "status": status,
                    "acknowledged": True}

    # -- campaigns -------------------------------------------------------------

    def _slos(self, spec: CampaignSpec) -> List[SLO]:
        slos = [SLO("failure-rate", "failure_rate", 0.5, Action.ABORT)]
        if spec.slo_p95_seconds is not None:
            slos.insert(0, SLO("update-time-p95", "p95_update_seconds",
                               spec.slo_p95_seconds, Action.PAUSE))
        return slos

    def _campaign_policy(self, spec: CampaignSpec) -> RolloutPolicy:
        return RolloutPolicy(canary_fraction=spec.canary_fraction,
                             abort_failure_rate=1.0,
                             max_attempts=spec.max_attempts)

    def _campaign_retry(self, spec: CampaignSpec) -> RetryPolicy:
        return RetryPolicy(
            max_attempts=spec.max_attempts, backoff_initial=1.0,
            jitter=0.0,
            transport_retry=TransportRetryPolicy(max_attempts=4))

    def _spec_path(self, name: str) -> Optional[str]:
        if not self.journal_dir:
            return None
        return os.path.join(self.journal_dir, "%s.spec.json" % name)

    def _journal_path(self, name: str) -> Optional[str]:
        if not self.journal_dir:
            return None
        return os.path.join(self.journal_dir, "%s.journal" % name)

    def create_campaign(self, body: Dict[str, object],
                        kill_after_appends: Optional[int] = None
                        ) -> Dict[str, object]:
        """Create and start a campaign; journaled when the service
        has a ``journal_dir``.  ``body['wait']`` blocks until done —
        the faces pass it through so tests stay deterministic."""
        self._requests.inc()
        spec = CampaignSpec.from_dict(body)
        wait = bool(body.get("wait", False))
        with self._lock:
            if spec.name in self._campaigns:
                raise self._reject("campaign-exists", 409,
                                   "campaign %r already exists"
                                   % spec.name)
        server, fleet = self.farm.world(spec)
        spec_path = self._spec_path(spec.name)
        if spec_path:
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec.to_dict(), fh, sort_keys=True)
                fh.write("\n")
        journal = CampaignJournal(self._journal_path(spec.name))
        if kill_after_appends is not None:
            journal.arm_kill(kill_after_appends)
        run = self._make_run(spec, server, fleet, journal,
                             resuming=False)
        with self._lock:
            self._campaigns[spec.name] = run
        self._start(run, wait)
        return self.campaign_status(spec.name)

    def _make_run(self, spec: CampaignSpec, server: UpdateServer,
                  fleet: List[DeviceRecord], journal: CampaignJournal,
                  resuming: bool,
                  clear_slos: bool = False) -> _CampaignRun:
        telemetry = FleetTelemetry(
            slos=self._slos(spec) if not clear_slos
            else [SLO("failure-rate", "failure_rate", 1.0,
                      Action.ABORT)])
        governor = RetryGovernor() if spec.governed else None
        kwargs = dict(policy=self._campaign_policy(spec),
                      retry=self._campaign_retry(spec),
                      telemetry=telemetry, governor=governor)
        if resuming:
            campaign = Campaign.resume(server, fleet, journal,
                                       **kwargs)
        else:
            campaign = Campaign(server, fleet, journal=journal,
                                **kwargs)
        return _CampaignRun(spec=spec, journal=journal,
                            campaign=campaign, server=server,
                            fleet=fleet, telemetry=telemetry)

    def _start(self, run: _CampaignRun, wait: bool,
               merge_previous: bool = False) -> None:
        previous = run.report if merge_previous else None

        def execute() -> None:
            try:
                report = run.campaign.run()
                run.report = self._merge_reports(previous,
                                                 report.to_dict())
                if report.paused:
                    run.state = "paused"
                elif report.aborted:
                    run.state = "aborted"
                else:
                    run.state = "done"
            except CoordinatorKilled as exc:
                run.state = "killed"
                run.error = str(exc)
            except Exception as exc:  # surfaced via status, not lost
                run.state = "failed"
                run.error = "%s: %s" % (type(exc).__name__, exc)

        run.state = "running"
        run.error = None
        thread = threading.Thread(target=execute,
                                  name="campaign-%s" % run.spec.name,
                                  daemon=True)
        run.thread = thread
        thread.start()
        if wait:
            # Bounded: a hung campaign must not pin the caller (an
            # HTTP executor thread) forever — the status stays
            # "running"/busy and the client can poll.
            thread.join(self.WAIT_TIMEOUT_SECONDS)

    def _run(self, name: str) -> _CampaignRun:
        with self._lock:
            run = self._campaigns.get(name)
        if run is None:
            raise self._reject("unknown-campaign", 404,
                               "no campaign %r" % name)
        return run

    def list_campaigns(self) -> Dict[str, object]:
        self._requests.inc()
        with self._lock:
            names = sorted(self._campaigns)
        return {"campaigns": [self.campaign_status(name)
                              for name in names]}

    def campaign_status(self, name: str) -> Dict[str, object]:
        """Status in the update_manager shape: one busy flag, the
        rollout verdict, and enough journal/governor detail that an
        operator can see *why* a rollout paused or slowed."""
        run = self._run(name)
        report = run.report
        status: Dict[str, object] = {
            "name": name,
            "spec": run.spec.to_dict(),
            "state": run.state,
            "busy": run.state == "running",
            "refreshes": run.refreshes,
            "journal": run.journal.stats(),
            "slo": {
                "verdict": run.telemetry.verdict(),
                "wave_actions": [v.action.value
                                 for v in run.telemetry.verdicts],
            },
        }
        if report is not None:
            status["report"] = report
            status["slo"]["breaches"] = report.get("slo_breaches", [])
        if run.error is not None:
            status["error"] = run.error
        return status

    def refresh_campaign(self, name: str,
                         body: Optional[Dict[str, object]] = None
                         ) -> Dict[str, object]:
        """Re-drive a paused rollout's pending remainder.

        A journal-backed pause is sealed (the WAL's campaign-end
        record covers the paused report), so continuing it in place
        would fork the journal's history — those return a structured
        409 pointing at the resume/new-campaign paths instead.
        """
        self._requests.inc()
        body = body or {}
        run = self._run(name)
        run.refreshes += 1
        if run.state != "paused":
            return self.campaign_status(name)
        if self.journal_dir:
            raise self._reject(
                "refresh-journaled", 409,
                "campaign %r is journal-sealed; resume it or roll a "
                "follow-up campaign" % name)
        if bool(body.get("clear_slos", False)):
            run.campaign.telemetry = FleetTelemetry(
                slos=[SLO("failure-rate", "failure_rate", 1.0,
                          Action.ABORT)])
            run.telemetry = run.campaign.telemetry
        self._start(run, bool(body.get("wait", False)),
                    merge_previous=True)
        return self.campaign_status(name)

    @staticmethod
    def _merge_reports(previous: Optional[Dict[str, object]],
                       current: Dict[str, object]
                       ) -> Dict[str, object]:
        """Fold a refresh continuation into the paused report it
        extends, so ``campaign_status`` keeps showing devices the
        canary wave already updated rather than only the re-driven
        remainder."""
        if previous is None:
            return current
        merged = dict(current)
        for key in ("waves", "updated", "failed", "skipped",
                    "quarantined", "slo_breaches"):
            seen = list(previous.get(key, []))
            for item in current.get(key, []):
                if item not in seen:
                    seen.append(item)
            merged[key] = seen
        for key in ("retries", "link_interruptions",
                    "total_bytes_over_air", "total_energy_mj",
                    "wall_clock_seconds"):
            merged[key] = (previous.get(key, 0) or 0) + \
                (current.get(key, 0) or 0)
        done = (len(merged["updated"]) + len(merged["failed"])
                + len(merged["quarantined"]))
        merged["success_rate"] = (len(merged["updated"]) / done
                                  if done else 0.0)
        return merged

    def resume_campaign(self, name: str, wait: bool = False
                        ) -> Dict[str, object]:
        """Resurrect a killed campaign from its WAL.

        Works on a *fresh* service instance: the spec file rebuilds
        the world through the farm (same devices, same flash), the
        journal replays, and PR 7's contract carries the rest — zero
        re-flashes, zero double-issued tokens, byte-identical report.
        """
        self._requests.inc()
        with self._lock:
            run = self._campaigns.get(name)
        if run is not None and run.state == "running":
            raise self._reject("campaign-busy", 409,
                               "campaign %r is still running" % name)
        if run is not None:
            spec, journal = run.spec, run.journal
            server, fleet = run.server, run.fleet
        else:
            spec_path = self._spec_path(name)
            if not spec_path or not os.path.exists(spec_path):
                raise self._reject("unknown-campaign", 404,
                                   "no campaign %r (and no persisted "
                                   "spec to resume from)" % name)
            with open(spec_path, "r", encoding="utf-8") as fh:
                spec = CampaignSpec.from_dict(json.load(fh))
            server, fleet = self.farm.world(spec)
            journal = CampaignJournal(self._journal_path(name))
        resumed = self._make_run(spec, server, fleet, journal,
                                 resuming=True)
        with self._lock:
            self._campaigns[name] = resumed
        self._start(resumed, wait)
        return self.campaign_status(name)

    def delete_campaign(self, name: str) -> Dict[str, object]:
        self._requests.inc()
        run = self._run(name)
        if run.state == "running":
            raise self._reject("campaign-busy", 409,
                               "campaign %r is still running" % name)
        with self._lock:
            self._campaigns.pop(name, None)
        for path in (self._spec_path(name), self._journal_path(name)):
            if path and os.path.exists(path):
                os.remove(path)
        return {"name": name, "deleted": True}

    def wait_campaign(self, name: str, timeout: float = 60.0) -> None:
        run = self._run(name)
        if run.thread is not None:
            run.thread.join(timeout)

    # -- metrics ---------------------------------------------------------------

    def health_snapshot(self, telemetry: Optional[object] = None
                        ) -> Dict[str, object]:
        """The liveness body shared by ``GET /healthz`` (HTTP) and the
        ``healthz`` CoAP resource — the parity test compares the two
        faces' payload shape.  A face passes its
        :class:`~repro.serve.telemetry.ServeTelemetry` to contribute
        uptime, in-flight requests and event-loop lag; a bare service
        reports zeros for those so the shape never varies."""
        with self._lock:
            snapshot: Dict[str, object] = {
                "status": "ok",
                "devices_registered": len(self._devices),
                "campaigns": len(self._campaigns),
                "open_tokens": sum(
                    1 for record in self._tokens.values()
                    if record.state != TOKEN_CLOSED),
                "requests_total": int(self._requests.value),
            }
        if telemetry is not None:
            snapshot.update(telemetry.health())
        else:
            snapshot.update({"uptime_seconds": 0.0,
                             "in_flight_requests": 0,
                             "event_loop_lag_p99_ms": 0.0,
                             "slow_requests": 0, "loop_stalls": 0})
        return snapshot

    def openmetrics(self) -> str:
        from ..obs.export import to_openmetrics
        registries: List[Tuple[str, MetricsRegistry]] = [
            ("service", self.metrics)]
        registries += [("channel-%s" % name, registry)
                       for name, registry
                       in sorted(self._channel_registries.items())]
        return to_openmetrics(registries)

    # -- helpers ---------------------------------------------------------------

    def _reject(self, code: str, status: int,
                detail: str) -> ServiceError:
        self._errors.inc()
        return ServiceError(code, status, detail)

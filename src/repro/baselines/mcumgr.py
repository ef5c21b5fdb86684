"""mcumgr-style baseline update agent (push, no verification).

mcumgr only *distributes* firmware (Sect. II): it writes whatever
arrives over BLE into the staging slot and relies entirely on the
bootloader for validation.  Consequences the paper calls out, all
reproduced by this model:

* no device token and no freshness: a captured old image replays
  cleanly;
* tampered or corrupt images are stored in full and rejected only
  after a reboot — wasted radio time, flash wear and downtime;
* there is no early abort on a bad manifest, because the manifest is
  never inspected before reboot.

The class is interface-compatible with
:class:`repro.core.UpdateAgent` so the same transports and the same
:class:`repro.sim.SimulatedDevice` accounting drive it.
"""

from __future__ import annotations

from typing import Optional

from ..core import (
    AgentState,
    DeviceProfile,
    DeviceToken,
    FeedStatus,
    SizeExceeded,
    StateError,
)
from ..core.agent import AgentStats, inspect_slot
from ..core.image import ENVELOPE_SIZE, SignedManifest
from ..memory import MemoryLayout, OpenMode, Slot

__all__ = ["McumgrAgent"]


class McumgrAgent:
    """Store-and-forward agent: no signature, token or digest checks."""

    #: No receive pipeline, so the device bills no pipeline CPU.
    pipeline_bytes = 0
    pipeline_manifest = None

    def __init__(self, profile: DeviceProfile, layout: MemoryLayout) -> None:
        self.profile = profile
        self.layout = layout
        self.stats = AgentStats()
        self.state = AgentState.WAITING
        self._target_slot: Optional[Slot] = None
        self._slot_file = None
        self._buf = bytearray()
        self._expected_payload: Optional[int] = None
        self._received = 0

    # -- UpdateAgent-compatible surface ----------------------------------------

    def running_slot(self) -> Optional[Slot]:
        best = None
        best_version = -1
        candidates = (self.layout.bootable_slots if self.layout.is_ab
                      else [self.layout.bootable_slots[0]])
        for slot in candidates:
            envelope = inspect_slot(slot)
            if envelope and envelope.manifest.version > best_version:
                best = slot
                best_version = envelope.manifest.version
        return best

    def installed_version(self) -> int:
        slot = self.running_slot()
        if slot is None:
            return 0
        envelope = inspect_slot(slot)
        return envelope.manifest.version if envelope else 0

    def request_token(self) -> DeviceToken:
        """mcumgr has no token concept; a null token keeps the transports
        uniform (the server then always serves a full image)."""
        if self.state is not AgentState.WAITING:
            raise StateError("upload already in progress")
        self.stats.tokens_issued += 1
        self._target_slot = self._staging_slot()
        self._slot_file = self._target_slot.open(OpenMode.WRITE_ALL)
        self._buf.clear()
        self._received = 0
        self._expected_payload = None
        self.state = AgentState.RECEIVE_MANIFEST
        return DeviceToken(device_id=self.profile.device_id, nonce=0,
                           current_version=0)

    def bytes_until_transition(self) -> int:
        """Bytes :meth:`feed` takes before anything but buffering
        happens (see :meth:`repro.core.UpdateAgent.bytes_until_transition`):
        the rest of the header; 0 once the payload streams, since every
        payload frame is its own flash write."""
        if self.state is AgentState.RECEIVE_MANIFEST:
            return ENVELOPE_SIZE - len(self._buf)
        return 0

    def feed(self, data: bytes) -> FeedStatus:
        if self.state is AgentState.RECEIVE_MANIFEST:
            self._buf.extend(data)
            self.stats.manifest_bytes += len(data)
            if len(self._buf) < ENVELOPE_SIZE:
                return FeedStatus.NEED_MORE
            header = bytes(self._buf[:ENVELOPE_SIZE])
            extra = bytes(self._buf[ENVELOPE_SIZE:])
            self._buf.clear()
            # The header is stored, *not* validated — only its length
            # field is read to know when the upload ends.
            try:
                envelope = SignedManifest.unpack(header)
                self._expected_payload = envelope.manifest.payload_size
            except Exception:
                self._expected_payload = None
            self._slot_file.write(header)
            self.state = AgentState.RECEIVE_FIRMWARE
            if extra:
                return self.feed(extra)
            return FeedStatus.MANIFEST_VERIFIED

        if self.state is AgentState.RECEIVE_FIRMWARE:
            capacity = self._target_slot.size - ENVELOPE_SIZE
            if self._received + len(data) > capacity:
                self.cancel()
                raise SizeExceeded("upload exceeds slot capacity")
            self._slot_file.write(data)
            self._received += len(data)
            self.stats.payload_bytes += len(data)
            if (self._expected_payload is not None
                    and self._received >= self._expected_payload):
                self._slot_file.close()
                self.state = AgentState.READY_TO_REBOOT
                self.stats.updates_completed += 1
                return FeedStatus.FIRMWARE_COMPLETE
            return FeedStatus.NEED_MORE

        raise StateError("received bytes in state %s" % self.state.value)

    def cancel(self) -> None:
        if self._slot_file is not None:
            self._slot_file.close()
        self._slot_file = None
        self._target_slot = None
        self._buf.clear()
        self._received = 0
        self.state = AgentState.WAITING

    @property
    def ready_to_reboot(self) -> bool:
        return self.state is AgentState.READY_TO_REBOOT

    def acknowledge_reboot(self) -> None:
        if self.state is not AgentState.READY_TO_REBOOT:
            raise StateError("no completed upload")
        self.cancel()

    # -- helpers ------------------------------------------------------------------

    def _staging_slot(self) -> Slot:
        if self.layout.is_ab:
            running = self.running_slot()
            for slot in self.layout.bootable_slots:
                if slot is not running:
                    return slot
            return self.layout.bootable_slots[0]
        staging = self.layout.staging_slot
        if staging is None:
            raise StateError("no staging slot available")
        return staging

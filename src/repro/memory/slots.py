"""Memory slots: bootable / non-bootable regions over simulated flash.

UpKit organises persistent memory in slots, each holding one update
image (Sect. IV-C, Fig. 6):

* **bootable (B)** slots contain a directly executable image;
* **non-bootable (NB)** slots require the bootloader to move the image
  to a bootable slot first.

Two canonical layouts from the paper:

* *Configuration A* — two bootable slots on internal flash (A/B
  updates: the bootloader jumps to the newest valid slot, no copying);
* *Configuration B* — one bootable slot on internal flash plus a
  non-bootable slot (optionally on external flash, as on the CC2650
  whose internal flash cannot hold two images) and an optional
  non-bootable recovery slot on external flash.

The module provides the portable erase / copy / swap operations the
paper's memory module exposes, with their full flash cost (erases and
writes accrue time on the underlying :class:`FlashMemory`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .flash import FlashMemory
from .interface import OpenMode, SlotIOError

__all__ = ["Slot", "FlashSlotFile", "MemoryLayout", "SlotError"]


class SlotError(Exception):
    """Raised on slot-level misuse (unknown slot, size mismatch...)."""


@dataclass(frozen=True)
class _SlotSpec:
    name: str
    flash: FlashMemory
    offset: int
    size: int
    bootable: bool


class Slot:
    """A fixed region of one flash device holding a single image."""

    def __init__(self, name: str, flash: FlashMemory, offset: int,
                 size: int, bootable: bool) -> None:
        if offset % flash.page_size or size % flash.page_size:
            raise SlotError(
                "slot %r must be page-aligned (page=%d, offset=%d, size=%d)"
                % (name, flash.page_size, offset, size)
            )
        if offset + size > flash.size:
            raise SlotError("slot %r exceeds flash device" % name)
        self._spec = _SlotSpec(name, flash, offset, size, bootable)

    # -- identity ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self._spec.name

    @property
    def size(self) -> int:
        return self._spec.size

    @property
    def bootable(self) -> bool:
        return self._spec.bootable

    @property
    def flash(self) -> FlashMemory:
        return self._spec.flash

    @property
    def offset(self) -> int:
        return self._spec.offset

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "B" if self.bootable else "NB"
        return "Slot(%s, %s, %d bytes on %s)" % (
            self.name, kind, self.size, self.flash.name)

    # -- IO ----------------------------------------------------------------

    def open(self, mode: OpenMode) -> "FlashSlotFile":
        return FlashSlotFile(self, mode)

    def erase(self) -> None:
        self.flash.erase_range(self.offset, self.size)

    def invalidate(self) -> None:
        """Erase only the first page, destroying the image header.

        This is the cheap way the FSM's *cleaning* state marks a slot
        invalid without paying a full-slot erase.
        """
        self.flash.erase_page(self.flash.page_of(self.offset))

    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        return self.flash.read(self.offset + offset, length)

    def read_all(self) -> bytes:
        return self.read(0, self.size)

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self.flash.write(self.offset + offset, data)

    def is_erased(self) -> bool:
        return self.flash.is_erased(self.offset, self.size)

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise SlotError(
                "access [%d, +%d) outside slot %r of %d bytes"
                % (offset, length, self.name, self.size)
            )


class FlashSlotFile:
    """POSIX-like handle over a slot, honouring UpKit's open modes."""

    def __init__(self, slot: Slot, mode: OpenMode) -> None:
        self._slot = slot
        self._mode = mode
        self._pos = 0
        self._closed = False
        self._prepared_pages: "set[int]" = set()
        if mode == OpenMode.WRITE_ALL:
            slot.erase()
            first = slot.flash.page_of(slot.offset)
            self._prepared_pages.update(
                range(first, first + slot.size // slot.flash.page_size)
            )

    @property
    def mode(self) -> OpenMode:
        return self._mode

    def read(self, length: int) -> bytes:
        data = self.read_at(self._pos, length)
        self._pos += len(data)
        return data

    def read_at(self, offset: int, length: int) -> bytes:
        self._ensure_open()
        length = max(0, min(length, self._slot.size - offset))
        if length == 0:
            return b""
        return self._slot.read(offset, length)

    def write(self, data: bytes) -> int:
        self._ensure_open()
        if self._mode == OpenMode.READ_ONLY:
            raise SlotIOError("slot %r opened READ_ONLY" % self._slot.name)
        if self._pos + len(data) > self._slot.size:
            raise SlotIOError(
                "write of %d bytes at %d overflows slot %r (%d bytes)"
                % (len(data), self._pos, self._slot.name, self._slot.size)
            )
        if self._mode == OpenMode.SEQUENTIAL_REWRITE:
            self._prepare_pages(self._pos, len(data))
        self._slot.write(self._pos, data)
        self._pos += len(data)
        return len(data)

    def seek(self, offset: int) -> None:
        self._ensure_open()
        if not (0 <= offset <= self._slot.size):
            raise SlotIOError("seek to %d outside slot" % offset)
        self._pos = offset

    def tell(self) -> int:
        return self._pos

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "FlashSlotFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _prepare_pages(self, offset: int, length: int) -> None:
        flash = self._slot.flash
        start = (self._slot.offset + offset) // flash.page_size
        end = (self._slot.offset + offset + max(length, 1) - 1) // flash.page_size
        for page in range(start, end + 1):
            if page not in self._prepared_pages:
                flash.erase_page(page)
                self._prepared_pages.add(page)

    def _ensure_open(self) -> None:
        if self._closed:
            raise SlotIOError("slot file already closed")


class MemoryLayout:
    """The set of slots of one device plus portable slot operations."""

    def __init__(self, slots: List[Slot]) -> None:
        if not slots:
            raise SlotError("a layout needs at least one slot")
        names = [s.name for s in slots]
        if len(set(names)) != len(names):
            raise SlotError("duplicate slot names: %r" % names)
        if not any(s.bootable for s in slots):
            raise SlotError("a layout needs at least one bootable slot")
        self.slots = list(slots)

    # -- canonical configurations (Fig. 6) ---------------------------------

    @classmethod
    def configuration_a(cls, flash: FlashMemory,
                        slot_size: int) -> "MemoryLayout":
        """Two bootable slots on one flash: A/B update mode."""
        return cls([
            Slot("a", flash, 0, slot_size, bootable=True),
            Slot("b", flash, slot_size, slot_size, bootable=True),
        ])

    @classmethod
    def configuration_b(
        cls,
        internal: FlashMemory,
        slot_size: int,
        external: Optional[FlashMemory] = None,
        recovery: bool = False,
    ) -> "MemoryLayout":
        """One bootable slot; staging (and recovery) possibly external.

        Static layouts also reserve a two-page **status region** at the
        end of internal flash (journal + scratch for the power-loss-safe
        swap, :class:`repro.memory.swap.ResumableSwap`); the slots must
        leave room for it.
        """
        staging_flash = external if external is not None else internal
        staging_offset = 0 if external is not None else slot_size
        status_size = 2 * internal.page_size
        status_offset = internal.size - status_size
        used = slot_size if external is not None else 2 * slot_size
        if used > status_offset:
            raise SlotError(
                "slots of %d bytes leave no room for the %d-byte status "
                "region on %d bytes of internal flash"
                % (slot_size, status_size, internal.size))
        slots = [
            Slot("a", internal, 0, slot_size, bootable=True),
            Slot("b", staging_flash, staging_offset, slot_size,
                 bootable=False),
            Slot("status", internal, status_offset, status_size,
                 bootable=False),
        ]
        if recovery:
            if external is None:
                raise SlotError("a recovery slot requires external flash")
            slots.append(Slot("recovery", external, slot_size, slot_size,
                              bootable=False))
        return cls(slots)

    # -- lookup -------------------------------------------------------------

    def get(self, name: str) -> Slot:
        for slot in self.slots:
            if slot.name == name:
                return slot
        raise SlotError("no slot named %r" % name)

    def flash_devices(self) -> List[FlashMemory]:
        """The distinct flash devices under the slots, in slot order."""
        devices: List[FlashMemory] = []
        for slot in self.slots:
            if all(slot.flash is not known for known in devices):
                devices.append(slot.flash)
        return devices

    @property
    def bootable_slots(self) -> List[Slot]:
        return [s for s in self.slots if s.bootable]

    @property
    def staging_slot(self) -> Optional[Slot]:
        """The non-bootable slot updates are staged into (if any)."""
        for slot in self.slots:
            if not slot.bootable and slot.name not in ("recovery",
                                                       "status"):
                return slot
        return None

    @property
    def status_slot(self) -> Optional[Slot]:
        """The swap journal/scratch region of static layouts (if any)."""
        for slot in self.slots:
            if slot.name == "status":
                return slot
        return None

    @property
    def is_ab(self) -> bool:
        """True for Configuration A (two or more bootable slots)."""
        return len(self.bootable_slots) >= 2

    # -- portable operations (erase / copy / swap) --------------------------

    def copy_slot(self, src: Slot, dst: Slot,
                  length: Optional[int] = None) -> None:
        """Stream ``src`` into ``dst`` page by page (dst erased lazily)."""
        if length is None:
            length = min(src.size, dst.size)
        if length > dst.size:
            raise SlotError("image of %d bytes does not fit slot %r"
                            % (length, dst.name))
        handle = dst.open(OpenMode.SEQUENTIAL_REWRITE)
        step = dst.flash.page_size
        copied = 0
        while copied < length:
            chunk = src.read(copied, min(step, length - copied))
            handle.write(chunk)
            copied += len(chunk)
        handle.close()

    def swap_slots(self, first: Slot, second: Slot,
                   length: Optional[int] = None) -> None:
        """Exchange two slots' contents through a one-page RAM buffer.

        This is what a static update pays on every install when the new
        image must end up in the single bootable slot — the cost A/B
        updates avoid (Fig. 8c).
        """
        if first.size != second.size:
            raise SlotError("swap requires equal slot sizes")
        if length is None:
            length = first.size
        step = max(first.flash.page_size, second.flash.page_size)
        offset = 0
        while offset < length:
            chunk = min(step, length - offset)
            buf_a = first.read(offset, chunk)
            buf_b = second.read(offset, chunk)
            first.flash.erase_range(first.offset + offset, chunk)
            second.flash.erase_range(second.offset + offset, chunk)
            first.write(offset, buf_b)
            second.write(offset, buf_a)
            offset += chunk

    def total_busy_seconds(self) -> float:
        """Summed flash busy time across the distinct devices involved."""
        seen = []
        total = 0.0
        for slot in self.slots:
            if id(slot.flash) not in [id(f) for f in seen]:
                seen.append(slot.flash)
                total += slot.flash.stats.busy_seconds
        return total

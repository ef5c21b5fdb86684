"""Simulated NOR flash with page-erase semantics and cost accounting.

UpKit's memory interface hides flash details from the upper layers
(Fig. 3), but its *behaviour* — erase-before-write, sector granularity,
slow erases — shapes the whole design: the pipeline's buffer stage
exists precisely because "matching the buffer size with the flash
sector size results in faster writes and fewer flash erasures"
(Sect. IV-C).

The model enforces real NOR rules:

* an erase sets a whole page to ``0xFF``;
* a write can only clear bits (1 → 0); writing over non-erased bytes
  with conflicting bits raises unless the caller erased first;
* per-page erase counters model wear;
* every operation accrues modeled time from the device's timing profile
  (consumed by :mod:`repro.sim`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

__all__ = ["FlashTiming", "FlashStats", "FlashMemory", "FlashError",
           "PowerLossError"]

ERASED = 0xFF
_ERASED_BYTE = b"\xFF"


class FlashError(Exception):
    """Raised on illegal flash operations (bounds, write-before-erase)."""


class PowerLossError(Exception):
    """Injected fault: power failed during a flash operation.

    Raised by :meth:`FlashMemory.inject_power_loss` countdowns.  A write
    interrupted mid-operation leaves a *partial* write behind (the first
    half of the data); an interrupted erase leaves a *half-erased* page
    (the tail half reads back ``0xFF``, the head keeps its old — now
    untrustworthy — bytes), modeling a real brown-out during
    programming or during the much slower page erase.
    """


@dataclass(frozen=True)
class FlashTiming:
    """Timing profile of one flash device.

    Defaults approximate the nRF52840's internal flash: 85 ms per 4 KiB
    page erase and ~41 µs per 4-byte word write.
    """

    erase_page_seconds: float = 0.085
    write_bytes_per_second: float = 97_000.0
    read_bytes_per_second: float = 8_000_000.0
    #: Fixed setup cost per program operation (driver call, HW enable).
    #: This is what the pipeline's buffer stage amortises: "matching the
    #: buffer size with the flash sector size results in faster writes".
    write_call_overhead_seconds: float = 0.00025


@dataclass
class FlashStats:
    """Cumulative operation counters for one flash device."""

    bytes_read: int = 0
    bytes_written: int = 0
    pages_erased: int = 0
    write_calls: int = 0
    busy_seconds: float = 0.0
    erase_counts: List[int] = field(default_factory=list)

    @property
    def max_wear(self) -> int:
        return max(self.erase_counts) if self.erase_counts else 0


class FlashMemory:
    """One flash device: programmed pages over an implicitly erased array.

    Storage is paged: ``_pages`` maps a page index to the ``bytearray``
    of a page that holds programmed bytes, and a page with no entry
    reads back erased (``0xFF``).  A provisioned device is mostly erased
    flash, so this keeps live memory (and a pickle shipped to a
    process-pool worker) proportional to what was programmed, and
    :meth:`erase_page` is a dict removal.  Every operation works on
    whole slices; none loops over bytes in Python.
    """

    def __init__(
        self,
        size: int,
        page_size: int = 4096,
        timing: "FlashTiming | None" = None,
        name: str = "flash",
        strict: bool = True,
    ) -> None:
        if size <= 0 or page_size <= 0:
            raise ValueError("size and page_size must be positive")
        if size % page_size:
            raise ValueError("flash size must be a multiple of the page size")
        self.size = size
        self.page_size = page_size
        self.name = name
        self.timing = timing if timing is not None else FlashTiming()
        self.strict = strict
        self._pages: Dict[int, bytearray] = {}
        self.stats = FlashStats(erase_counts=[0] * (size // page_size))
        self._fault_countdown: "int | None" = None
        self._fault_during = "any"

    @property
    def page_count(self) -> int:
        return self.size // self.page_size

    def page_of(self, offset: int) -> int:
        self._check_range(offset, 1)
        return offset // self.page_size

    # -- operations -------------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        self._check_range(offset, length)
        self.stats.bytes_read += length
        self.stats.busy_seconds += length / self.timing.read_bytes_per_second
        return self._load(offset, length)

    def peek(self, offset: int, length: int) -> bytes:
        """Raw contents of one range (test/fault aid; no cost accounting)."""
        self._check_range(offset, length)
        return self._load(offset, length)

    # -- fault injection ----------------------------------------------------

    def inject_power_loss(self, after_operations: int,
                          during: str = "any") -> None:
        """Arm a power-loss fault ``after_operations`` erases/writes.

        The Nth modifying operation fails: an erase leaves a half-erased
        page behind; a write lands only its first half — then
        :class:`PowerLossError` is raised.  ``during`` restricts both the
        countdown and the trip to one operation kind (``"write"`` or
        ``"erase"``), so a fault plan can say "power loss at the k-th
        page erase" regardless of interleaved writes; the default
        ``"any"`` counts every modifying operation.  Used by the
        power-loss-safety tests and the chaos sweep
        (:mod:`repro.tools.chaos`).
        """
        if after_operations < 0:
            raise ValueError("after_operations must be non-negative")
        if during not in ("any", "write", "erase"):
            raise ValueError("during must be 'any', 'write' or 'erase'")
        self._fault_countdown = after_operations
        self._fault_during = during

    def clear_fault(self) -> None:
        self._fault_countdown = None
        self._fault_during = "any"

    @property
    def fault_armed(self) -> bool:
        """True while an injected power-loss fault has not fired yet."""
        return self._fault_countdown is not None

    def _tick_fault(self, kind: str) -> bool:
        """Returns True when the armed fault fires on this operation."""
        if self._fault_countdown is None:
            return False
        if self._fault_during not in ("any", kind):
            return False
        if self._fault_countdown == 0:
            self._fault_countdown = None
            return True
        self._fault_countdown -= 1
        return False

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data``; bits may only transition 1 → 0."""
        data = bytes(data)
        length = len(data)
        self._check_range(offset, length)
        if self._tick_fault("write"):
            half = data[: length // 2]
            if half:
                self.write(offset, half)
            raise PowerLossError(
                "%s: power lost writing at 0x%X" % (self.name, offset))
        if self.strict:
            current = self._load(offset, length)
            if current.count(ERASED) != length:
                # One big-integer op checks the whole range.  Little-
                # endian, so byte i is bits 8i..8i+7 and the lowest set
                # conflict bit names the first byte that would set a bit
                # 0 → 1.  Without a conflict, ``data`` only clears bits
                # (it equals ``current & data``) and lands as it is.
                conflict = (int.from_bytes(data, "little")
                            & ~int.from_bytes(current, "little"))
                if conflict:
                    first = ((conflict & -conflict).bit_length() - 1) // 8
                    raise FlashError(
                        "%s: write at 0x%X would set bits 0→1 "
                        "(erase the page first)" % (self.name, offset + first)
                    )
        self._store(offset, data)
        self.stats.bytes_written += length
        self.stats.write_calls += 1
        self.stats.busy_seconds += (
            length / self.timing.write_bytes_per_second
            + self.timing.write_call_overhead_seconds
        )

    def erase_page(self, page: int) -> None:
        if not (0 <= page < self.page_count):
            raise FlashError("%s: page %d out of range" % (self.name, page))
        if self._tick_fault("erase"):
            # Brown-out mid-erase: the page is *half*-erased — the tail
            # half reads back 0xFF, the head keeps its stale (now
            # untrustworthy) bytes.  Wear still happened, and roughly
            # half the erase time was spent before the supply collapsed.
            programmed = self._pages.get(page)
            if programmed is not None:
                half = self.page_size // 2
                programmed[half:] = b"\xFF" * (self.page_size - half)
            self.stats.erase_counts[page] += 1
            self.stats.busy_seconds += self.timing.erase_page_seconds / 2
            raise PowerLossError(
                "%s: power lost erasing page %d" % (self.name, page))
        self._pages.pop(page, None)
        self.stats.pages_erased += 1
        self.stats.erase_counts[page] += 1
        self.stats.busy_seconds += self.timing.erase_page_seconds

    def erase_range(self, offset: int, length: int) -> None:
        """Erase every page overlapping [offset, offset+length)."""
        if length <= 0:
            return
        self._check_range(offset, length)
        first = offset // self.page_size
        last = (offset + length - 1) // self.page_size
        for page in range(first, last + 1):
            self.erase_page(page)

    def is_erased(self, offset: int, length: int) -> bool:
        self._check_range(offset, length)
        pages = self._pages
        for index, start, stop, _ in self._spans(offset, length):
            programmed = pages.get(index)
            if programmed is not None \
                    and programmed.count(ERASED, start, stop) != stop - start:
                return False
        return True

    def snapshot(self) -> bytes:
        """Raw contents (test/debug aid; bypasses cost accounting)."""
        return self._load(0, self.size)

    def corrupt(self, offset: int, data: bytes) -> None:
        """Overwrite raw bytes bypassing NOR rules — fault injection only."""
        self._check_range(offset, len(data))
        self._store(offset, bytes(data))

    def reset_stats(self) -> None:
        self.stats = FlashStats(erase_counts=[0] * self.page_count)

    # -- helpers ----------------------------------------------------------

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise FlashError(
                "%s: access [0x%X, +%d) outside device of %d bytes"
                % (self.name, offset, length, self.size)
            )

    def _spans(self, offset: int, length: int
               ) -> Iterator[Tuple[int, int, int, int]]:
        """``(page, start, stop, position)`` for each page of a range.

        ``start:stop`` is the slice inside the page and ``position`` the
        matching offset into the range.
        """
        page_size = self.page_size
        position = 0
        while position < length:
            index, start = divmod(offset + position, page_size)
            stop = min(page_size, start + length - position)
            yield index, start, stop, position
            position += stop - start

    def _load(self, offset: int, length: int) -> bytes:
        index, start = divmod(offset, self.page_size)
        if start + length <= self.page_size:
            # Most reads fall inside one page: skip the span walk.
            programmed = self._pages.get(index)
            return (bytes(programmed[start:start + length])
                    if programmed is not None else _ERASED_BYTE * length)
        pages = self._pages
        parts = []
        for index, start, stop, _ in self._spans(offset, length):
            programmed = pages.get(index)
            parts.append(programmed[start:stop] if programmed is not None
                         else _ERASED_BYTE * (stop - start))
        return b"".join(parts)

    def _store(self, offset: int, data: bytes) -> None:
        """Place raw bytes, creating a page only for non-erased content."""
        pages = self._pages
        for index, start, stop, position in self._spans(offset, len(data)):
            chunk = data[position:position + stop - start]
            programmed = pages.get(index)
            if programmed is None:
                if chunk.count(ERASED) == len(chunk):
                    continue
                programmed = pages[index] = bytearray(
                    _ERASED_BYTE * self.page_size)
            programmed[start:stop] = chunk

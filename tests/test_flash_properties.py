"""Property-based NOR-flash invariants.

The memory substrate underpins every power-loss argument, so its
semantics get their own hypothesis battery: arbitrary interleavings of
erases and writes must preserve the NOR model (a byte is the AND of
everything written since its last erase; erased bytes read 0xFF).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (FlashError, FlashMemory, FlashStats, FlashTiming,
                          PowerLossError)

PAGES = 4
PAGE = 256
SIZE = PAGES * PAGE


operations = st.lists(
    st.one_of(
        st.tuples(st.just("erase"),
                  st.integers(min_value=0, max_value=PAGES - 1)),
        st.tuples(st.just("write"),
                  st.tuples(st.integers(min_value=0, max_value=SIZE - 8),
                            st.binary(min_size=1, max_size=8))),
    ),
    max_size=30,
)


def reference_apply(ops):
    """A trivially-correct NOR model to compare against."""
    data = bytearray(b"\xFF" * SIZE)
    results = []
    for op, arg in ops:
        if op == "erase":
            start = arg * PAGE
            data[start:start + PAGE] = b"\xFF" * PAGE
            results.append(True)
        else:
            offset, payload = arg
            legal = all(
                (payload[i] & ~data[offset + i] & 0xFF) == 0
                for i in range(len(payload))
            )
            results.append(legal)
            if legal:
                for i, byte in enumerate(payload):
                    data[offset + i] &= byte
    return bytes(data), results


@settings(max_examples=60, deadline=None)
@given(operations)
def test_nor_semantics_match_reference(ops):
    flash = FlashMemory(SIZE, page_size=PAGE)
    expected_data, expected_legal = reference_apply(ops)
    for (op, arg), legal in zip(ops, expected_legal):
        if op == "erase":
            flash.erase_page(arg)
        else:
            offset, payload = arg
            if legal:
                flash.write(offset, payload)
            else:
                try:
                    flash.write(offset, payload)
                    raise AssertionError("illegal write accepted")
                except FlashError:
                    pass
    assert flash.snapshot() == expected_data


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=PAGES - 1),
       st.binary(min_size=1, max_size=PAGE))
def test_erase_write_read_roundtrip(page, payload):
    flash = FlashMemory(SIZE, page_size=PAGE)
    offset = page * PAGE
    flash.write(offset, b"\x00" * len(payload))  # dirty it
    flash.erase_page(page)
    flash.write(offset, payload)
    assert flash.read(offset, len(payload)) == payload


@settings(max_examples=40, deadline=None)
@given(operations)
def test_stats_are_consistent(ops):
    flash = FlashMemory(SIZE, page_size=PAGE)
    erases = 0
    writes = 0
    for op, arg in ops:
        if op == "erase":
            flash.erase_page(arg)
            erases += 1
        else:
            offset, payload = arg
            try:
                flash.write(offset, payload)
                writes += 1
            except FlashError:
                pass
    assert flash.stats.pages_erased == erases
    assert flash.stats.write_calls == writes
    assert sum(flash.stats.erase_counts) == erases
    assert flash.stats.busy_seconds > 0 or (erases == 0 and writes == 0)


# -- differential check against a byte-loop reference ---------------------------


class ByteLoopFlash:
    """The NOR model written the obvious way: one flat byte array and a
    Python loop per byte.  :class:`FlashMemory` stores pages and checks
    whole ranges at once; it must be indistinguishable from this."""

    def __init__(self, size, page_size, timing, name, strict):
        self.size, self.page_size = size, page_size
        self.timing, self.name, self.strict = timing, name, strict
        self.data = bytearray(b"\xFF" * size)
        self.stats = FlashStats(erase_counts=[0] * (size // page_size))
        self.countdown, self.during = None, "any"

    def check(self, offset, length):
        if offset < 0 or length < 0 or offset + length > self.size:
            raise FlashError("%s: access [0x%X, +%d) outside device of %d "
                             "bytes" % (self.name, offset, length, self.size))

    def tick(self, kind):
        if self.countdown is None or self.during not in ("any", kind):
            return False
        if self.countdown == 0:
            self.countdown = None
            return True
        self.countdown -= 1
        return False

    def read(self, offset, length):
        self.check(offset, length)
        self.stats.bytes_read += length
        self.stats.busy_seconds += length / self.timing.read_bytes_per_second
        return bytes(self.data[offset:offset + length])

    def write(self, offset, data):
        self.check(offset, len(data))
        if self.tick("write"):
            if len(data) // 2:
                self.write(offset, data[:len(data) // 2])
            raise PowerLossError("%s: power lost writing at 0x%X"
                                 % (self.name, offset))
        if self.strict:
            for i, byte in enumerate(data):
                if byte & ~self.data[offset + i] & 0xFF:
                    raise FlashError("%s: write at 0x%X would set bits 0→1 "
                                     "(erase the page first)"
                                     % (self.name, offset + i))
            for i, byte in enumerate(data):
                self.data[offset + i] &= byte
        else:
            for i, byte in enumerate(data):
                self.data[offset + i] = byte
        self.stats.bytes_written += len(data)
        self.stats.write_calls += 1
        self.stats.busy_seconds += (
            len(data) / self.timing.write_bytes_per_second
            + self.timing.write_call_overhead_seconds)

    def erase_page(self, page):
        if not 0 <= page < self.size // self.page_size:
            raise FlashError("%s: page %d out of range" % (self.name, page))
        start = page * self.page_size
        if self.tick("erase"):
            for i in range(start + self.page_size // 2,
                           start + self.page_size):
                self.data[i] = 0xFF
            self.stats.erase_counts[page] += 1
            self.stats.busy_seconds += self.timing.erase_page_seconds / 2
            raise PowerLossError("%s: power lost erasing page %d"
                                 % (self.name, page))
        for i in range(start, start + self.page_size):
            self.data[i] = 0xFF
        self.stats.pages_erased += 1
        self.stats.erase_counts[page] += 1
        self.stats.busy_seconds += self.timing.erase_page_seconds

    def erase_range(self, offset, length):
        if length <= 0:
            return
        self.check(offset, length)
        for page in range(offset // self.page_size,
                          (offset + length - 1) // self.page_size + 1):
            self.erase_page(page)

    def is_erased(self, offset, length):
        self.check(offset, length)
        return all(byte == 0xFF for byte in self.data[offset:offset + length])

    def peek(self, offset, length):
        self.check(offset, length)
        return bytes(self.data[offset:offset + length])

    def corrupt(self, offset, data):
        self.check(offset, len(data))
        for i, byte in enumerate(data):
            self.data[offset + i] = byte

    def inject_power_loss(self, after_operations, during="any"):
        self.countdown, self.during = after_operations, during


# Small pages and a small device, so random ranges overlap, cross page
# boundaries and hit programmed bytes (hence strict conflicts) often.
DIFF_PAGE = 64
DIFF_PAGES = 4
DIFF_SIZE = DIFF_PAGE * DIFF_PAGES

_offsets = st.integers(min_value=-1, max_value=DIFF_SIZE)
_lengths = st.integers(min_value=-1, max_value=DIFF_SIZE // 2)
_payloads = st.binary(min_size=0, max_size=3 * DIFF_PAGE // 2)
_write = st.tuples(st.just("write"), st.tuples(_offsets, _payloads))

mixed_operations = st.lists(
    st.one_of(
        _write, _write, _write,
        st.tuples(st.just("erase_page"),
                  st.tuples(st.integers(min_value=-1, max_value=DIFF_PAGES))),
        st.tuples(st.just("erase_range"), st.tuples(_offsets, _lengths)),
        st.tuples(st.just("corrupt"), st.tuples(_offsets, _payloads)),
        st.tuples(st.just("read"), st.tuples(_offsets, _lengths)),
        st.tuples(st.just("peek"), st.tuples(_offsets, _lengths)),
        st.tuples(st.just("is_erased"), st.tuples(_offsets, _lengths)),
        st.tuples(st.just("inject_power_loss"),
                  st.tuples(st.integers(min_value=0, max_value=2),
                            st.sampled_from(["any", "write", "erase"]))),
    ),
    min_size=20,
    max_size=60,
)


def _outcome(target, op, args):
    try:
        return "ok", getattr(target, op)(*args)
    except (FlashError, PowerLossError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(mixed_operations, st.booleans())
def test_paged_flash_matches_byte_loop_reference(ops, strict):
    """Same bytes, same errors (message and offset), same FlashStats
    after every operation — power loss and bit rot included."""
    timing = FlashTiming()
    flash = FlashMemory(DIFF_SIZE, page_size=DIFF_PAGE, timing=timing,
                        name="dut", strict=strict)
    reference = ByteLoopFlash(DIFF_SIZE, DIFF_PAGE, timing, "dut", strict)
    for op, args in ops:
        assert _outcome(flash, op, args) == _outcome(reference, op, args), \
            (op, args)
        assert flash.snapshot() == bytes(reference.data), (op, args)
        assert flash.stats == reference.stats, (op, args)
        assert flash.fault_armed == (reference.countdown is not None)

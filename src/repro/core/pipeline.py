"""The configurable receive pipeline (Sect. IV-C, Fig. 5).

Data received from the network is transformed *on-the-fly* before it
reaches persistent memory, so a differential update never needs an
extra slot to stage the patch.  Stages, in order:

1. **Decryption** (optional; the paper's future-work extension) —
   CTR-mode stream decipher.
2. **Decompression** — LZSS, only for delta payloads.
3. **Patching** — streaming bspatch against the currently installed
   firmware, read back from its slot.
4. **Buffer** — accumulate to the flash sector size ("matching the
   buffer size with the flash sector size results in faster writes and
   fewer flash erasures").
5. **Writer** — pushes buffered data to the slot handle, one buffer
   per write.

For full-image payloads only buffer + writer are active; the pipeline
factory wires stages from the manifest's payload kind.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..compression import LzssDecoder, LzssError
from ..crypto import StreamCipher
from ..delta import PatchFormatError, StreamingPatcher
from ..obs import NULL_TRACER
from .errors import PipelineError
from .manifest import Manifest

__all__ = [
    "Stage",
    "DecryptionStage",
    "DecompressionStage",
    "PatchingStage",
    "BufferStage",
    "Pipeline",
    "build_pipeline",
]

WriteSink = Callable[[bytes], int]
OldReader = Callable[[int, int], bytes]


class Stage:
    """A pipeline stage: transform a chunk, flush leftovers at the end."""

    name = "stage"

    def feed(self, data: bytes) -> bytes:
        raise NotImplementedError

    def finish(self) -> bytes:
        """Flush and validate end-of-stream; default is empty."""
        return b""


class DecryptionStage(Stage):
    """CTR-mode stream decryption (optional extension stage)."""

    name = "decryption"

    def __init__(self, cipher: StreamCipher) -> None:
        self._cipher = cipher

    def feed(self, data: bytes) -> bytes:
        return self._cipher.process(data)


class DecompressionStage(Stage):
    """LZSS decompression of the delta stream."""

    name = "decompression"

    def __init__(self) -> None:
        self._decoder = LzssDecoder()

    def feed(self, data: bytes) -> bytes:
        try:
            return self._decoder.feed(data)
        except LzssError as exc:
            raise PipelineError("decompression: %s" % exc) from exc

    def finish(self) -> bytes:
        try:
            self._decoder.finish()
        except LzssError as exc:
            raise PipelineError("decompression: %s" % exc) from exc
        return b""


class PatchingStage(Stage):
    """Streaming bspatch against the installed firmware."""

    name = "patching"

    def __init__(self, old_reader: OldReader, old_size: int) -> None:
        self._patcher = StreamingPatcher(old_reader, old_size)

    def feed(self, data: bytes) -> bytes:
        try:
            return self._patcher.feed(data)
        except PatchFormatError as exc:
            raise PipelineError("patching: %s" % exc) from exc

    def finish(self) -> bytes:
        try:
            self._patcher.finish()
        except PatchFormatError as exc:
            raise PipelineError("patching: %s" % exc) from exc
        return b""


class BufferStage(Stage):
    """Accumulates output to ``buffer_size`` (ideally the sector size)."""

    name = "buffer"

    def __init__(self, buffer_size: int = 4096) -> None:
        if buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        self.buffer_size = buffer_size
        self._buf = bytearray()

    def feed(self, data: bytes) -> bytes:
        buf = self._buf
        buf.extend(data)
        size = len(buf)
        if size < self.buffer_size:
            return b""
        emit_len = size - (size % self.buffer_size)
        if emit_len == size:
            # Whole-buffer emit (the common case: sector-aligned
            # chunks): one copy, no slice staging.
            out = bytes(buf)
            buf.clear()
        else:
            with memoryview(buf) as staged:
                out = bytes(staged[:emit_len])
            del buf[:emit_len]
        return out

    def finish(self) -> bytes:
        out = bytes(self._buf)
        self._buf.clear()
        return out


class Pipeline:
    """A chain of stages ending in a write sink."""

    def __init__(self, stages: List[Stage], sink: WriteSink) -> None:
        self.stages = stages
        self._sink = sink
        self.bytes_in = 0
        self.bytes_out = 0
        self._finished = False
        #: Per-stage ``[bytes_in, bytes_out]``, surfaced as
        #: ``pipeline.<stage>.*`` metrics by the agent.
        self.stage_bytes = {stage.name: [0, 0] for stage in stages}
        #: One-shot latch so the agent flushes each pipeline's stage
        #: counts into its registry exactly once.
        self.metrics_flushed = False
        #: The owning agent's tracer (stage-level spans); the shared
        #: null tracer keeps the hot path free when tracing is off.
        self.tracer = NULL_TRACER
        #: The sink takes at most one buffer per call, as a device's
        #: sector buffer holds one sector: a feed that fills several
        #: buffers is several flash writes, however it was chunked.
        last = stages[-1] if stages else None
        self._block = (last.buffer_size if isinstance(last, BufferStage)
                       else None)

    @property
    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def feed(self, chunk: bytes) -> int:
        """Push a network chunk through every stage; returns bytes written."""
        if self._finished:
            raise PipelineError("pipeline already finished")
        self.bytes_in += len(chunk)
        # Zero-copy staging: chunks arriving as bytes pass through
        # untouched; only mutable buffers are snapshotted.
        data = chunk if type(chunk) is bytes else bytes(chunk)
        for stage in self.stages:
            record = self.stage_bytes[stage.name]
            record[0] += len(data)
            with self.tracer.span(stage.name, category="pipeline",
                                  nbytes=len(data)):
                data = stage.feed(data)
            record[1] += len(data)
            if not data:
                return 0
        return self._write(data)

    def finish(self) -> int:
        """Flush every stage in order; returns total bytes written."""
        if self._finished:
            raise PipelineError("pipeline already finished")
        self._finished = True
        carry = b""
        for index, stage in enumerate(self.stages):
            record = self.stage_bytes[stage.name]
            if carry:
                record[0] += len(carry)
                carry = stage.feed(carry)
                record[1] += len(carry)
            flushed = stage.finish()
            record[1] += len(flushed)
            carry = (carry or b"") + flushed
        if carry:
            self._write(carry)
        return self.bytes_out

    def _write(self, data: bytes) -> int:
        block = self._block or len(data)
        for start in range(0, len(data), block):
            piece = data[start:start + block]
            with self.tracer.span("flash.write", category="pipeline",
                                  nbytes=len(piece)):
                written = self._sink(piece)
            if written != len(piece):
                raise PipelineError(
                    "sink accepted %d of %d bytes" % (written, len(piece)))
            self.bytes_out += len(piece)
        return len(data)


def build_pipeline(
    manifest: Manifest,
    sink: WriteSink,
    old_reader: Optional[OldReader] = None,
    old_size: int = 0,
    cipher: Optional[StreamCipher] = None,
    buffer_size: int = 4096,
) -> Pipeline:
    """Wire the stages required by ``manifest.payload_kind``."""
    stages: List[Stage] = []
    if manifest.is_encrypted:
        if cipher is None:
            raise PipelineError(
                "encrypted payload but no cipher configured")
        cipher.reset()
        stages.append(DecryptionStage(cipher))
    if manifest.is_delta:
        if old_reader is None:
            raise PipelineError(
                "differential payload but no installed firmware to patch")
        stages.append(DecompressionStage())
        stages.append(PatchingStage(old_reader, old_size))
    stages.append(BufferStage(buffer_size))
    return Pipeline(stages, sink)

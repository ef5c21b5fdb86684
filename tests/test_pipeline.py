"""Pipeline-module tests: stages, wiring, streaming behaviour."""

from __future__ import annotations

import pytest

from repro.compression import compress
from repro.core import (
    BufferStage,
    DecompressionStage,
    DecryptionStage,
    Manifest,
    PatchingStage,
    PayloadKind,
    Pipeline,
    PipelineError,
    build_pipeline,
)
from repro.crypto import StreamCipher, sha256
from repro.delta import diff


class SinkRecorder:
    """Collects sink writes and their sizes."""

    def __init__(self):
        self.writes = []

    def __call__(self, data: bytes) -> int:
        self.writes.append(bytes(data))
        return len(data)

    @property
    def data(self) -> bytes:
        return b"".join(self.writes)


def full_manifest(firmware: bytes, kind=PayloadKind.FULL,
                  payload_size=None) -> Manifest:
    return Manifest(
        version=2, size=len(firmware), digest=sha256(firmware),
        link_offset=0, app_id=1, payload_kind=kind,
        payload_size=payload_size if payload_size is not None
        else len(firmware),
    )


# -- BufferStage -------------------------------------------------------------------


def test_buffer_stage_holds_until_full():
    stage = BufferStage(buffer_size=8)
    assert stage.feed(b"1234") == b""
    assert stage.feed(b"5678") == b"12345678"


def test_buffer_stage_emits_multiples_of_buffer_size():
    stage = BufferStage(buffer_size=4)
    assert stage.feed(b"123456789") == b"12345678"
    assert stage.finish() == b"9"


def test_buffer_stage_finish_flushes_remainder():
    stage = BufferStage(buffer_size=100)
    stage.feed(b"abc")
    assert stage.finish() == b"abc"
    assert stage.finish() == b""


def test_buffer_stage_rejects_bad_size():
    with pytest.raises(ValueError):
        BufferStage(buffer_size=0)


# -- DecompressionStage ----------------------------------------------------------


def test_decompression_stage_roundtrip():
    data = b"pipeline payload " * 100
    stage = DecompressionStage()
    out = stage.feed(compress(data))
    out += stage.finish()
    assert out == data


def test_decompression_stage_wraps_errors():
    stage = DecompressionStage()
    token = ((4000 - 1) << 4) | 0  # back-reference into empty window
    with pytest.raises(PipelineError):
        stage.feed(bytes([0x00, token >> 8, token & 0xFF]))


def test_decompression_stage_truncation_detected_at_finish():
    stage = DecompressionStage()
    stage.feed(compress(b"abcabcabcabc" * 20)[:-1])
    with pytest.raises(PipelineError):
        stage.finish()


# -- PatchingStage ------------------------------------------------------------------


def test_patching_stage_applies_patch():
    old = bytes(range(256)) * 20
    new = old[:2000] + b"inserted" + old[2000:]
    stage = PatchingStage(lambda off, n: old[off:off + n], len(old))
    out = stage.feed(diff(old, new))
    out += stage.finish()
    assert out == new


def test_patching_stage_wraps_format_errors():
    stage = PatchingStage(lambda off, n: b"", 0)
    with pytest.raises(PipelineError):
        stage.feed(b"NOT A PATCH HEADER")


# -- DecryptionStage -----------------------------------------------------------------


def test_decryption_stage_decrypts():
    cipher_enc = StreamCipher(b"k" * 16, b"n" * 16)
    ciphertext = cipher_enc.process(b"secret firmware bytes")
    stage = DecryptionStage(StreamCipher(b"k" * 16, b"n" * 16))
    assert stage.feed(ciphertext) == b"secret firmware bytes"


# -- build_pipeline wiring -------------------------------------------------------------


def test_full_payload_pipeline_stages():
    firmware = b"F" * 1000
    sink = SinkRecorder()
    pipeline = build_pipeline(full_manifest(firmware), sink)
    assert pipeline.stage_names == ["buffer"]


def test_delta_pipeline_stages():
    manifest = full_manifest(b"F" * 1000, kind=PayloadKind.DELTA_LZSS,
                             payload_size=100)
    pipeline = build_pipeline(manifest, SinkRecorder(),
                              old_reader=lambda o, n: b"", old_size=0)
    assert pipeline.stage_names == ["decompression", "patching", "buffer"]


def test_encrypted_delta_pipeline_stages():
    manifest = full_manifest(b"F" * 1000, kind=PayloadKind.DELTA_ENCRYPTED,
                             payload_size=100)
    pipeline = build_pipeline(
        manifest, SinkRecorder(),
        old_reader=lambda o, n: b"", old_size=0,
        cipher=StreamCipher(b"k" * 16, b"n" * 16))
    assert pipeline.stage_names == ["decryption", "decompression",
                                    "patching", "buffer"]


def test_delta_without_old_reader_rejected():
    manifest = full_manifest(b"F" * 100, kind=PayloadKind.DELTA_LZSS,
                             payload_size=10)
    with pytest.raises(PipelineError):
        build_pipeline(manifest, SinkRecorder())


def test_encrypted_without_cipher_rejected():
    manifest = full_manifest(b"F" * 100, kind=PayloadKind.FULL_ENCRYPTED,
                             payload_size=100)
    with pytest.raises(PipelineError):
        build_pipeline(manifest, SinkRecorder())


# -- end-to-end pipeline behaviour -------------------------------------------------------


def test_full_pipeline_buffers_writes_to_sector_size():
    firmware = bytes(range(256)) * 40  # 10240 bytes
    sink = SinkRecorder()
    pipeline = build_pipeline(full_manifest(firmware), sink,
                              buffer_size=4096)
    for offset in range(0, len(firmware), 100):
        pipeline.feed(firmware[offset:offset + 100])
    pipeline.finish()
    assert sink.data == firmware
    # All intermediate writes are sector-aligned; only the tail is short.
    assert all(len(w) % 4096 == 0 for w in sink.writes[:-1])


def test_pipeline_writes_one_buffer_per_sink_call():
    # A sector buffer holds one sector: a feed that fills three buffers
    # is three flash writes, not one multi-sector write.
    firmware = bytes(range(250)) * 4
    sink = SinkRecorder()
    pipeline = build_pipeline(full_manifest(firmware), sink,
                              buffer_size=256)
    assert pipeline.feed(firmware) == 768
    assert [len(write) for write in sink.writes] == [256, 256, 256]
    pipeline.finish()
    assert [len(write) for write in sink.writes] == [256, 256, 256, 232]
    assert sink.data == firmware


def test_delta_pipeline_end_to_end():
    old = bytes(range(251)) * 37
    new = bytearray(old)
    new[100:110] = b"0123456789"
    new = bytes(new) + b"appendix" * 10
    wire = compress(diff(old, new))

    sink = SinkRecorder()
    manifest = full_manifest(new, kind=PayloadKind.DELTA_LZSS,
                             payload_size=len(wire))
    pipeline = build_pipeline(manifest, sink,
                              old_reader=lambda o, n: old[o:o + n],
                              old_size=len(old), buffer_size=512)
    for offset in range(0, len(wire), 64):
        pipeline.feed(wire[offset:offset + 64])
    pipeline.finish()
    assert sink.data == new
    assert pipeline.bytes_in == len(wire)
    assert pipeline.bytes_out == len(new)


def test_encrypted_full_pipeline_end_to_end():
    firmware = b"encrypted image contents " * 64
    server_cipher = StreamCipher(b"key!" * 8, b"n" * 16)
    wire = server_cipher.process(firmware)

    sink = SinkRecorder()
    manifest = full_manifest(firmware, kind=PayloadKind.FULL_ENCRYPTED,
                             payload_size=len(wire))
    pipeline = build_pipeline(manifest, sink,
                              cipher=StreamCipher(b"key!" * 8, b"n" * 16),
                              buffer_size=256)
    pipeline.feed(wire)
    pipeline.finish()
    assert sink.data == firmware


def test_pipeline_rejects_feed_after_finish():
    pipeline = build_pipeline(full_manifest(b"F" * 10), SinkRecorder())
    pipeline.feed(b"F" * 10)
    pipeline.finish()
    with pytest.raises(PipelineError):
        pipeline.feed(b"x")
    with pytest.raises(PipelineError):
        pipeline.finish()


def test_pipeline_detects_short_sink_write():
    manifest = full_manifest(b"F" * 100)
    pipeline = build_pipeline(manifest, lambda data: len(data) - 1,
                              buffer_size=10)
    with pytest.raises(PipelineError):
        pipeline.feed(b"F" * 100)

"""SimulatedDevice accounting tests: phase attribution and cost hiding."""

from __future__ import annotations

import pytest

from repro.core import SignatureInvalid, inspect_slot
from repro.crypto import HSMBackend, get_backend
from repro.net import ManifestTamperer
from repro.platform import CC2650, CONTIKI
from repro.sim import PipelineCpuModel, Testbed
from repro.workload import FirmwareGenerator

IMAGE_SIZE = 16 * 1024


@pytest.fixture()
def gen():
    return FirmwareGenerator(seed=b"device-tests")


def make_bed(gen, **kwargs):
    base = gen.firmware(IMAGE_SIZE, image_id=1)
    defaults = dict(initial_firmware=base, slot_size=64 * 1024)
    defaults.update(kwargs)
    bed = Testbed.create(**defaults)
    bed.release(gen.os_version_change(base, revision=2), 2)
    return bed


def test_phase_attribution_covers_total(gen):
    bed = make_bed(gen)
    outcome = bed.push_update()
    assert outcome.success
    assert sum(outcome.phases.values()) == pytest.approx(
        outcome.total_seconds)


def test_flash_overlap_hides_time_not_energy(gen):
    hidden = make_bed(gen)
    hidden.device.flash_overlaps_radio = True
    out_hidden = hidden.push_update()

    visible = make_bed(gen)
    visible.device.flash_overlaps_radio = False
    out_visible = visible.push_update()

    # Same flash energy either way; propagation time differs.
    assert out_hidden.energy_mj["flash"] == pytest.approx(
        out_visible.energy_mj["flash"])
    assert (out_visible.phases["propagation"]
            > out_hidden.phases["propagation"])
    # Loading (bootloader) is serial in both models.
    assert out_visible.phases["loading"] == pytest.approx(
        out_hidden.phases["loading"], rel=0.01)


def test_delta_updates_spend_pipeline_cpu(gen):
    delta_bed = make_bed(gen, supports_differential=True)
    delta_out = delta_bed.push_update()
    full_bed = make_bed(gen, supports_differential=False)
    full_out = full_bed.push_update()
    # Full images bypass decompression/patching entirely.
    assert delta_out.energy_mj.get("cpu", 0) \
        > full_out.energy_mj.get("cpu", 0)


@pytest.mark.parametrize("transport", ["push", "pull"])
def test_pipeline_cpu_bills_payload_bytes_only(gen, transport):
    # The frame that completes the envelope also carries payload bytes;
    # only those reach the pipeline, so only they cost LZSS + bspatch.
    bed = make_bed(gen, supports_differential=True)
    update = bed.push_update if transport == "push" else bed.pull_update
    outcome = update(reboot_on_success=False)
    assert outcome.success
    manifest = inspect_slot(bed.device.agent.staged_slot).manifest
    assert manifest.is_delta
    cpu, board = bed.device.cpu, bed.device.board
    seconds = manifest.payload_size * (1 / cpu.lzss_bytes_per_second
                                       + 1 / cpu.bspatch_bytes_per_second)
    assert outcome.energy_mj["cpu"] == pytest.approx(
        seconds * board.cpu_active_ma * board.supply_volts, rel=1e-12)


def test_cpu_model_throughput_matters(gen):
    slow = make_bed(gen)
    slow.device.cpu = PipelineCpuModel(lzss_bytes_per_second=10_000.0,
                                       bspatch_bytes_per_second=10_000.0)
    slow_out = slow.push_update()
    fast = make_bed(gen)
    fast_out = fast.push_update()
    assert slow_out.phases["propagation"] > fast_out.phases["propagation"]


def test_hsm_device_end_to_end(gen):
    bed = make_bed(gen, board=CC2650, os_profile=CONTIKI,
                   crypto_library="cryptoauthlib",
                   slot_configuration="b", slot_size=48 * 1024)
    assert isinstance(bed.device.backend, HSMBackend)
    outcome = bed.pull_update()
    assert outcome.success
    # HSM verification is cheap: verification is a sliver of the total.
    assert outcome.phases["verification"] < 0.5


def test_failed_verification_still_costs_crypto(gen):
    bed = make_bed(gen)
    outcome = bed.push_update(interceptor=ManifestTamperer())
    assert isinstance(outcome.error, SignatureInvalid)
    assert outcome.energy_mj.get("crypto", 0) > 0


def test_reboot_counter(gen):
    bed = make_bed(gen)
    assert bed.device.reboots == 0
    bed.push_update()
    assert bed.device.reboots == 1
    bed.device.reboot()
    assert bed.device.reboots == 2


def test_pipeline_buffer_default_is_page_size(gen):
    bed = make_bed(gen)
    assert bed.device.agent.pipeline_buffer_size \
        == bed.device.board.internal_page_size


def test_custom_backend_injection(gen):
    base = gen.firmware(IMAGE_SIZE, image_id=1)
    backend = get_backend("tinydtls")
    bed = Testbed.create(initial_firmware=base, slot_size=64 * 1024,
                         crypto_library="tinydtls")
    assert bed.device.backend.profile.name == "tinydtls"

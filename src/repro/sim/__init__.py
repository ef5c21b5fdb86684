"""Simulation substrate: virtual time, energy metering, simulated devices."""

from .clock import VirtualClock
from .device import DeviceRebooted, PipelineCpuModel, SimulatedDevice
from .energy import EnergyMeter
from .runner import DEFAULT_APP_ID, DEFAULT_DEVICE_ID, Testbed

__all__ = [
    "DEFAULT_APP_ID",
    "DEFAULT_DEVICE_ID",
    "DeviceRebooted",
    "EnergyMeter",
    "PipelineCpuModel",
    "SimulatedDevice",
    "Testbed",
    "VirtualClock",
]

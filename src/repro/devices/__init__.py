"""Simulated storage devices: rotating disk and OpenChannel-style SSD."""

from repro.devices.request import BlockRequest, IoClass, IoOp
from repro.devices.disk import Disk, DiskParams
from repro.devices.ssd import Ssd, SsdGeometry

__all__ = ["BlockRequest", "IoClass", "IoOp", "Disk", "DiskParams",
           "Ssd", "SsdGeometry"]

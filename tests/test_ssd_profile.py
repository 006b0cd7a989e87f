"""Tests of SSD profiling."""

import pytest

from repro._units import MS
from repro.devices import Ssd, SsdGeometry
from repro.devices.ssd_profile import SsdLatencyModel, profile_ssd


def test_from_spec_copies_constants():
    model = SsdLatencyModel.from_spec(SsdGeometry())
    assert model.page_read_us == 100.0
    assert model.channel_xfer_us == 60.0
    assert model.erase_us == 6 * MS
    assert len(model.program_us) == 512


def test_profile_measures_read_time():
    model = profile_ssd(lambda sim: Ssd(sim, SsdGeometry(jitter_frac=0.0)))
    assert model.page_read_us == pytest.approx(100.0, rel=0.02)


def test_profile_measures_channel_delay():
    model = profile_ssd(lambda sim: Ssd(sim, SsdGeometry(jitter_frac=0.0)))
    assert model.channel_xfer_us == pytest.approx(60.0, rel=0.1)


def test_ssd_profiling_preserves_caller_req_id_numbering():
    from repro.devices.request import req_id_watermark
    from repro.sim import Simulator

    Simulator(seed=3)
    assert req_id_watermark() == 0
    profile_ssd(lambda sim: Ssd(sim), probes_per_point=2)
    assert req_id_watermark() == 0

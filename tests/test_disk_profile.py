"""Tests of disk profiling / the fitted latency model."""

import pytest

from repro._units import GB, KB
from repro.devices import BlockRequest, Disk, DiskParams, IoOp
from repro.devices.disk_profile import DiskLatencyModel, profile_disk


def test_profile_recovers_disk_parameters():
    model = profile_disk(lambda sim: Disk(sim, DiskParams(
        jitter_frac=0.0, hiccup_prob=0.0)))
    assert model.seek_base_us == pytest.approx(2000.0, rel=0.15)
    assert model.seek_per_gb_us == pytest.approx(12.0, rel=0.15)
    assert model.transfer_per_kb_us == pytest.approx(10.0, rel=0.15)


def test_profile_tolerates_jitter():
    model = profile_disk(lambda sim: Disk(sim))
    assert model.seek_per_gb_us == pytest.approx(12.0, rel=0.3)


def test_seek_cost_symmetry():
    model = DiskLatencyModel(2000.0, 12.0, 10.0)
    assert model.seek_cost(0, 10 * GB) == model.seek_cost(10 * GB, 0)


def test_service_time_includes_transfer():
    model = DiskLatencyModel(2000.0, 12.0, 10.0)
    small = BlockRequest(IoOp.READ, 0, 4 * KB)
    big = BlockRequest(IoOp.READ, 0, 1024 * KB)
    delta = model.service_time(0, big) - model.service_time(0, small)
    assert delta == pytest.approx(10.0 * 1020)


def test_model_predicts_actual_service_closely():
    """On a quiet disk the fitted model should be within a few percent."""
    from repro.sim import Simulator
    model = profile_disk(lambda sim: Disk(sim, DiskParams(
        jitter_frac=0.0, hiccup_prob=0.0)))
    sim = Simulator(seed=9)
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    rng = sim.rng("check")
    errors = []

    def loop():
        for _ in range(50):
            offset = rng.randrange(0, 900 * GB)
            req = BlockRequest(IoOp.READ, offset, 16 * KB)
            predicted = model.service_time(disk.head_offset, req)
            req.submit_time = sim.now
            done = sim.event()
            req.add_callback(done.succeed)
            disk.submit(req)
            yield done
            errors.append(abs(req.latency - predicted) / req.latency)

    sim.process(loop())
    sim.run()
    assert sum(errors) / len(errors) < 0.05


def test_profiling_preserves_caller_req_id_numbering():
    """The profiler's internal probe simulator resets the shared req-id
    counter; the caller's watermark must be restored so cold-cache runs
    (first `disk_latency_model()` call in a process) number their
    requests exactly like warm runs — same-seed trace digests depend on
    it (see the diff tool and ``python -m repro.analysis check``)."""
    from repro.devices.request import req_id_watermark
    from repro.sim import Simulator

    Simulator(seed=3)  # fresh numbering, as at the start of any run
    first = BlockRequest(IoOp.READ, 0, 4 * KB)
    assert first.req_id == 0
    profile_disk(lambda sim: Disk(sim), tries=1, distance_points=2,
                 size_points=1)
    assert req_id_watermark() == 1
    assert BlockRequest(IoOp.READ, 0, 4 * KB).req_id == 1

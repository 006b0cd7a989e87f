"""Tests of MittSSD per-chip prediction."""

import pytest

from repro._units import KB, MS
from repro.devices import BlockRequest, IoOp, Ssd, SsdGeometry
from repro.devices.ssd_profile import SsdLatencyModel
from repro.errors import is_ebusy
from repro.kernel import NoopScheduler, OS
from repro.mittos import MittSsd


def _stack(sim, mode="precise", **geo_kw):
    geo = SsdGeometry(jitter_frac=0.0, **geo_kw)
    ssd = Ssd(sim, geo)
    sched = NoopScheduler(sim, ssd)
    predictor = MittSsd(ssd, SsdLatencyModel.from_spec(geo), mode=mode)
    os_ = OS(sim, ssd, sched, predictor=predictor)
    return os_, predictor, ssd


def _read(lpn, pages=1, page=16 * KB):
    return BlockRequest(IoOp.READ, lpn * page, pages * page)


def test_mode_validated(sim):
    ssd = Ssd(sim)
    with pytest.raises(ValueError):
        MittSsd(ssd, SsdLatencyModel.from_spec(ssd.geometry), mode="x")


def test_idle_read_estimate_is_100us(sim):
    _, predictor, _ = _stack(sim)
    wait, service = predictor._estimate(_read(0))
    assert wait == 0.0
    assert service == 100.0


def test_estimate_sees_busy_chip(sim):
    os_, predictor, ssd = _stack(sim)
    ssd.erase_block(0)  # chip 0 busy for 6 ms
    wait, _ = predictor._estimate(_read(0))
    assert wait == pytest.approx(6 * MS, rel=0.05)
    # Other chips unaffected:
    wait_other, _ = predictor._estimate(_read(1))
    assert wait_other < 100.0


def test_admit_rejects_read_behind_erase(sim):
    os_, predictor, ssd = _stack(sim)
    ssd.erase_block(0)
    verdict = predictor.admit(_read(0), deadline=2 * MS)
    assert not verdict.accept
    verdict_other = predictor.admit(_read(1), deadline=2 * MS)
    assert verdict_other.accept


def test_striped_request_rejected_if_any_subpage_violates(sim):
    os_, predictor, ssd = _stack(sim)
    ssd.erase_block(3)  # one of the stripe targets
    verdict = predictor.admit(_read(0, pages=8), deadline=2 * MS)
    assert not verdict.accept


def test_write_estimate_uses_program_pattern(sim):
    _, predictor, ssd = _stack(sim)
    write = BlockRequest(IoOp.WRITE, 0, 16 * KB)
    _, service = predictor._estimate(write)
    # First allocation lands on page 0 of a fresh block: a 1 ms lower page.
    assert service == pytest.approx(1 * MS)


def test_chip_mirror_resyncs_after_drain(sim):
    os_, predictor, ssd = _stack(sim)

    def gen():
        yield from os_.read(0, 0, 16 * KB)
        yield 1 * MS

    proc = sim.process(gen())
    sim.run()
    wait, _ = predictor._estimate(_read(0))
    assert wait == 0.0


def test_channel_contention_predicted(sim):
    os_, predictor, ssd = _stack(sim)
    # Load chips 1-7 (same channel as chip 0) with reads.
    for chip in range(1, 8):
        sim.process(os_.read(0, chip * 16 * KB, 16 * KB))
    sim.run(until=sim.now)
    wait, _ = predictor._estimate(_read(0))
    assert wait > 0.0  # channel serialization visible


def test_end_to_end_ebusy_failover_path(sim):
    os_, predictor, ssd = _stack(sim)
    ssd.erase_block(0)

    def gen():
        result = yield from os_.read(0, 0, 16 * KB, deadline=1 * MS)
        return result

    proc = sim.process(gen())
    sim.run()
    assert is_ebusy(proc.value)


def test_prediction_tracks_actual_latency(sim):
    os_, predictor, ssd = _stack(sim)
    rng = sim.rng("acc")
    errors = []

    def loop():
        for _ in range(60):
            lpn = rng.randrange(0, 4096)
            req = _read(lpn)
            verdict = predictor.admit(req, deadline=1_000 * MS)
            req.submit_time = sim.now
            done = sim.event()
            req.add_callback(done.succeed)
            os_.scheduler.submit(req)
            if rng.random() < 0.4:
                sim.process(os_.write(0, rng.randrange(0, 4096) * 16 * KB,
                                      64 * KB))
            yield done
            total = verdict.predicted_wait + verdict.predicted_service
            errors.append(abs(req.latency - total))

    sim.process(loop())
    sim.run()
    assert sum(errors) / len(errors) < 100.0  # within one page read


def test_naive_mode_ignores_channel_and_pattern(sim):
    os_, predictor, ssd = _stack(sim, mode="naive")
    write = BlockRequest(IoOp.WRITE, 0, 16 * KB)
    _, service = predictor._estimate(write)
    assert service == 1500.0  # the averaged program time

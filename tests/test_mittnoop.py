"""Tests of MittNoop disk prediction."""

import pytest

from repro._units import GB, KB, MS
from repro.devices import BlockRequest, Disk, DiskParams, IoOp
from repro.devices.disk_profile import profile_disk
from repro.kernel import NoopScheduler, OS
from repro.mittos import MittNoop


def _model():
    return profile_disk(lambda sim: Disk(sim, DiskParams(
        jitter_frac=0.0, hiccup_prob=0.0)))


MODEL = _model()


def _stack(sim, mode="precise", depth=4):
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0,
                                queue_depth=depth))
    sched = NoopScheduler(sim, disk)
    predictor = MittNoop(MODEL, mode=mode)
    os_ = OS(sim, disk, sched, predictor=predictor)
    return os_, predictor


def _read(offset, size=4 * KB, pid=1):
    return BlockRequest(IoOp.READ, offset, size, pid=pid)


def test_mode_validated():
    with pytest.raises(ValueError):
        MittNoop(MODEL, mode="bogus")


def test_idle_estimate_is_service_only(sim):
    os_, predictor = _stack(sim)
    req = _read(100 * GB)
    wait, service = predictor._estimate(req)
    assert wait == 0.0
    assert service == pytest.approx(MODEL.service_time(0, req), rel=0.01)


def test_estimate_grows_with_queue(sim):
    os_, predictor = _stack(sim)
    waits = []
    for i in range(4):
        probe = _read(500 * GB)
        wait, _ = predictor._estimate(probe)
        waits.append(wait)
        sim.process(os_.read(0, i * 50 * GB, 1024 * KB, pid=9))
        sim.run(until=sim.now)
    assert waits == sorted(waits)
    assert waits[-1] > 10 * MS


def test_admit_accepts_idle(sim):
    os_, predictor = _stack(sim)
    req = _read(10 * GB)
    verdict = predictor.admit(req, deadline=50 * MS)
    assert verdict.accept
    assert predictor.admitted == 1


def test_admit_rejects_busy(sim):
    os_, predictor = _stack(sim)
    for i in range(5):
        sim.process(os_.read(0, i * 100 * GB, 2048 * KB, pid=9))
    sim.run(until=sim.now)
    req = _read(10 * GB)
    verdict = predictor.admit(req, deadline=10 * MS)
    assert not verdict.accept
    assert predictor.rejected == 1
    assert verdict.predicted_wait > 0  # the wait hint EBUSY carries


def test_rejection_test_includes_hop_allowance(sim):
    os_, predictor = _stack(sim)
    req = _read(10 * GB)
    _, service = predictor._estimate(req)
    hop = os_.params.failover_hop_us
    just_under = predictor.admit(_read(10 * GB), service - hop + 1.0)
    assert just_under.accept  # deadline + hop covers the service time


def test_prediction_attached_to_request(sim):
    os_, predictor = _stack(sim)
    req = _read(10 * GB)
    predictor.admit(req, deadline=50 * MS)
    assert req.predicted_wait is not None
    assert req.predicted_service is not None


def test_shadow_mode_never_rejects(sim):
    sim_disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    sched = NoopScheduler(sim, sim_disk)
    predictor = MittNoop(MODEL, shadow=True)
    OS(sim, sim_disk, sched, predictor=predictor)
    for i in range(5):
        sched.submit(_read(i * 100 * GB, 2048 * KB, pid=9))
    req = _read(10 * GB)
    verdict = predictor.admit(req, deadline=1 * MS)
    assert verdict.accept
    assert req.shadow_ebusy is True


def test_prediction_accuracy_on_quiet_disk(sim):
    """End-to-end: predicted total within ~10% of actual, serial IOs."""
    os_, predictor = _stack(sim)
    rng = sim.rng("acc")
    errors = []

    def loop():
        for _ in range(40):
            offset = rng.randrange(0, 900 * GB)
            req = _read(offset)
            verdict = predictor.admit(req, deadline=1_000 * MS)
            done = sim.event()
            req.add_callback(done.succeed)
            req.submit_time = sim.now
            os_.scheduler.submit(req)
            yield done
            total = verdict.predicted_wait + verdict.predicted_service
            errors.append(abs(req.latency - total) / req.latency)

    sim.process(loop())
    sim.run()
    assert sum(errors) / len(errors) < 0.1


def test_naive_mode_has_no_calibration():
    assert MittNoop(MODEL, mode="naive").calibrate is False
    assert MittNoop(MODEL, mode="precise").calibrate is True


def test_mirror_tracks_device_population(sim):
    os_, predictor = _stack(sim, depth=2)
    for i in range(2):
        sim.process(os_.read(0, i * GB, 4 * KB, pid=9))
    sim.run(until=sim.now)
    assert len(predictor._in_device) == 2
    sim.run()
    assert len(predictor._in_device) == 0

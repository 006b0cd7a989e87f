"""Tests of MittCFQ: CFQ-aware estimates + the tolerable-time ledger."""

from repro._units import GB, KB, MS
from repro.devices import BlockRequest, Disk, DiskParams, IoClass, IoOp
from repro.devices.disk_profile import profile_disk
from repro.errors import is_ebusy
from repro.kernel import CfqScheduler, OS
from repro.mittos import MittCfq
from repro.obs.accuracy import AccuracyJoiner
from repro.obs.bus import TraceRecorder
from repro.obs.events import LATE_REJECT, VERDICT
from repro.sim import Simulator

MODEL = profile_disk(lambda sim: Disk(sim, DiskParams(
    jitter_frac=0.0, hiccup_prob=0.0)))


def _stack(sim, depth=1, **kwargs):
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0,
                                queue_depth=depth))
    sched = CfqScheduler(sim, disk)
    predictor = MittCfq(MODEL, **kwargs)
    os_ = OS(sim, disk, sched, predictor=predictor)
    return os_, predictor, sched


def _req(offset, size=4 * KB, pid=1, ioclass=IoClass.BE):
    return BlockRequest(IoOp.READ, offset, size, pid=pid, ioclass=ioclass)


def test_higher_class_waits_ignored_for_rt_request(sim):
    os_, predictor, sched = _stack(sim)
    sched.submit(_req(0))  # in device
    for i in range(5):
        sched.submit(_req(i * 10 * GB, 1024 * KB, pid=9,
                          ioclass=IoClass.BE))
    rt_probe = _req(500 * GB, ioclass=IoClass.RT, pid=2)
    be_probe = _req(500 * GB, ioclass=IoClass.BE, pid=2)
    rt_wait, _ = predictor._estimate(rt_probe)
    be_wait, _ = predictor._estimate(be_probe)
    assert rt_wait < be_wait  # RT jumps the BestEffort queue


def test_own_queue_position_matters(sim):
    os_, predictor, sched = _stack(sim)
    sched.submit(_req(0))
    for i in range(1, 6):
        sched.submit(_req(i * 100 * GB, 1024 * KB, pid=1))
    early_probe = _req(50 * GB, pid=1)
    late_probe = _req(900 * GB, pid=1)
    early_wait, _ = predictor._estimate(early_probe)
    late_wait, _ = predictor._estimate(late_probe)
    assert early_wait < late_wait


def test_bump_back_cancellation(sim):
    os_, predictor, sched = _stack(sim)

    def gen():
        sim.process(os_.read(0, 0, 4 * KB, pid=9))
        ev = sim.process(os_.read(0, 800 * GB, 4 * KB, pid=1,
                                  deadline=20 * MS))
        for i in range(15):
            sim.process(os_.read(0, i * GB, 1024 * KB, pid=1))
        result = yield ev
        return result

    proc = sim.process(gen())
    sim.run()
    assert is_ebusy(proc.value)
    assert predictor.late_cancellations >= 1


def test_no_cancellation_when_disabled(sim):
    os_, predictor, sched = _stack(sim, cancel_bumped=False)

    def gen():
        sim.process(os_.read(0, 0, 4 * KB, pid=9))
        ev = sim.process(os_.read(0, 800 * GB, 4 * KB, pid=1,
                                  deadline=20 * MS))
        for i in range(15):
            sim.process(os_.read(0, i * GB, 1024 * KB, pid=1))
        result = yield ev
        return result

    proc = sim.process(gen())
    sim.run()
    assert predictor.late_cancellations == 0
    assert not is_ebusy(proc.value)  # it just (slowly) completes


def test_rt_arrivals_debit_lower_classes(sim):
    os_, predictor, sched = _stack(sim)

    def gen():
        sim.process(os_.read(0, 0, 4 * KB, pid=9))
        # Admitted with a modest margin; offset 0 keeps same-pid IOs from
        # cutting in line — only the RT flood can bump it.
        ev = sim.process(os_.read(0, 0, 4 * KB, pid=1, deadline=15 * MS,
                                  ioclass=IoClass.BE))
        for i in range(15):
            sim.process(os_.read(0, (i + 1) * 30 * GB, 1024 * KB, pid=8,
                                 ioclass=IoClass.RT))
        result = yield ev
        return result

    proc = sim.process(gen())
    sim.run()
    assert is_ebusy(proc.value)


def test_dispatched_requests_are_not_cancelled(sim):
    os_, predictor, sched = _stack(sim, depth=4)
    ev = sim.process(os_.read(0, 10 * GB, 4 * KB, pid=1, deadline=50 * MS))
    # The request dispatched immediately (device had room): the ledger
    # must leave it alone no matter what arrives now.
    for i in range(10):
        sim.process(os_.read(0, i * GB, 1024 * KB, pid=1, ioclass=IoClass.RT))
    sim.run()
    assert not is_ebusy(ev.value)


def test_shadow_mode_flips_accuracy_decision():
    """A shadow bump-back turns the admitted request's recorded decision
    into EBUSY: on the request, on the trace, and in the grading."""
    recorder = TraceRecorder()
    sim = Simulator(seed=42, recorder=recorder)
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0,
                                queue_depth=1))
    sched = CfqScheduler(sim, disk)
    predictor = MittCfq(MODEL, shadow=True)
    os_ = OS(sim, disk, sched, predictor=predictor)

    dispatched = []
    sched.add_dispatch_listener(dispatched.append)
    sim.process(os_.read(0, 0, 4 * KB, pid=9))
    ev = sim.process(os_.read(0, 800 * GB, 4 * KB, pid=1, deadline=20 * MS))
    for i in range(15):
        sim.process(os_.read(0, i * GB, 1024 * KB, pid=1))
    sim.run()
    assert not is_ebusy(ev.value)  # shadow: the IO still ran
    assert predictor.late_cancellations == 1
    (req,) = [r for r in dispatched if r.abs_deadline is not None]
    assert req.shadow_ebusy

    (verdict,) = recorder.by_topic(VERDICT)
    assert verdict.fields["req"] == req.req_id
    assert verdict.fields["accept"]  # admitted first ...
    (late,) = recorder.by_topic(LATE_REJECT)
    assert late.fields["req"] == req.req_id  # ... then bumped back
    (record,) = AccuracyJoiner.from_events(recorder.events).records
    assert record.req == req.req_id
    assert not record.accept


def test_ledger_pruning(sim):
    os_, predictor, sched = _stack(sim, depth=1)
    sched.submit(_req(0))
    for i in range(80):
        req = _req(i * 10 * GB, pid=1)
        req.abs_deadline = sim.now + 10_000 * MS
        predictor.admit(req, 10_000 * MS)
        sched.submit(req)
    assert len(predictor._ledger) <= 81
    sim.run()


def test_process_count_passthrough(sim):
    os_, predictor, sched = _stack(sim)
    sched.submit(_req(0))
    sched.submit(_req(1 * GB, pid=5))
    sched.submit(_req(2 * GB, pid=6))
    assert predictor.process_count() == 2

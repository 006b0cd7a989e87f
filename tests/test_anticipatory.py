"""Tests of the anticipatory scheduler and its MittOS integration."""

from repro._units import GB, KB, MS
from repro.devices import BlockRequest, Disk, DiskParams, IoOp
from repro.devices.disk_profile import profile_disk
from repro.errors import is_ebusy
from repro.kernel import OS
from repro.kernel.anticipatory import AnticipatoryScheduler
from repro.mittos.mittanticipatory import MittAnticipatory

MODEL = profile_disk(lambda sim: Disk(sim, DiskParams(
    jitter_frac=0.0, hiccup_prob=0.0)))


def _stack(sim, mitt=False, anticipation_us=3 * MS):
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0,
                                queue_depth=1))
    sched = AnticipatoryScheduler(sim, disk,
                                  anticipation_us=anticipation_us)
    predictor = MittAnticipatory(MODEL) if mitt else None
    os_ = OS(sim, disk, sched, predictor=predictor)
    return os_, sched, disk


def _read(offset, pid):
    return BlockRequest(IoOp.READ, offset, 4 * KB, pid=pid)


def test_anticipation_starts_after_a_lone_read(sim):
    os_, sched, disk = _stack(sim)
    first = _read(10 * GB, pid=1)
    other = _read(500 * GB, pid=2)
    sched.submit(first)
    sched.submit(other)
    done_at = {}
    first.add_callback(lambda r: done_at.__setitem__("first", sim.now))
    sim.run_until(sim.timeout(0))  # let the first dispatch happen
    sim.run()
    assert sched.anticipation_expiries >= 1
    # `other` waited out the anticipation window after `first` finished.
    assert other.complete_time > first.complete_time + 3 * MS


def test_anticipated_read_jumps_the_queue(sim):
    os_, sched, disk = _stack(sim)
    first = _read(10 * GB, pid=1)
    stranger = _read(500 * GB, pid=2)
    sched.submit(first)
    sched.submit(stranger)
    order = []
    stranger.add_callback(lambda r: order.append("stranger"))

    def followup():
        # Arrive during the anticipation window with a nearby read.
        yield sim.timeout(
            disk.model_service_time(0, first) + 1 * MS)
        follow = _read(10 * GB + 4 * KB, pid=1)
        follow.add_callback(lambda r: order.append("follow"))
        sched.submit(follow)

    sim.process(followup())
    sim.run()
    assert order == ["follow", "stranger"]
    assert sched.anticipation_hits == 1


def test_no_anticipation_when_same_pid_has_more_reads(sim):
    os_, sched, disk = _stack(sim)
    a = _read(10 * GB, pid=1)
    b = _read(11 * GB, pid=1)
    sched.submit(a)
    sched.submit(b)
    sim.run()
    assert sched.anticipation_expiries == 0
    assert sched.anticipation_hits == 0


def test_mitt_estimate_includes_anticipation_stall(sim):
    os_, sched, disk = _stack(sim, mitt=True)
    predictor = os_.predictor
    first = _read(10 * GB, pid=1)
    pending = _read(700 * GB, pid=3)  # competing work worth deferring
    sched.submit(first)
    sched.submit(pending)
    sim.run_until(sim.timeout(disk.model_service_time(0, first) + 10))
    assert sched.anticipating
    stranger = _read(500 * GB, pid=2)
    wait, _ = predictor._estimate(stranger)
    assert wait >= sched.anticipation_us
    # The anticipated process itself sees zero wait.
    own = _read(10 * GB + 4 * KB, pid=1)
    own_wait, _ = predictor._estimate(own)
    assert own_wait == 0.0
    sim.run()


def test_mitt_rejects_during_anticipation_with_tight_deadline(sim):
    os_, sched, disk = _stack(sim, mitt=True, anticipation_us=20 * MS)

    def gen():
        ev = sim.process(os_.read(0, 10 * GB, 4 * KB, pid=1))
        yield 0  # the read reaches the scheduler first
        sched.submit(_read(700 * GB, pid=3))  # worth anticipating over
        yield ev
        assert sched.anticipating
        # A stranger with a deadline shorter than the hold window:
        result = yield from os_.read(0, 10 * GB + 8 * KB, 4 * KB, pid=2,
                                     deadline=5 * MS)
        return result

    proc = sim.process(gen())
    sim.run_until(proc)
    assert is_ebusy(proc.value)


def test_cancel_works_under_anticipation(sim):
    os_, sched, disk = _stack(sim)
    first = _read(10 * GB, pid=1)
    victim = _read(500 * GB, pid=2)
    sched.submit(first)
    sched.submit(victim)
    assert sched.cancel(victim) is True
    sim.run()
    assert victim.cancelled
    assert disk.completed == 1

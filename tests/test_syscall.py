"""Tests of the OS facade: read/addrcheck/write."""

import pytest

from repro._units import GB, KB, MS
from repro.devices import Disk, DiskParams
from repro.devices.disk_profile import profile_disk
from repro.devices.request import BlockRequest, IoOp
from repro.errors import is_ebusy
from repro.kernel import CfqScheduler, OS, PageCache
from repro.mittos import MittCfq
from repro.obs.bus import TraceRecorder
from repro.obs.events import IO_COMPLETE, VERDICT
from repro.sim import Simulator
from tests.conftest import run_process


def _os(sim, cache_pages=None, mitt=False, depth=4):
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0,
                                queue_depth=depth))
    sched = CfqScheduler(sim, disk)
    predictor = None
    if mitt:
        model = profile_disk(lambda s: Disk(s, DiskParams(
            jitter_frac=0.0, hiccup_prob=0.0)))
        predictor = MittCfq(model)
    cache = PageCache(sim, cache_pages) if cache_pages else None
    return OS(sim, disk, sched, cache=cache, predictor=predictor)


def test_plain_read_returns_result(sim):
    os_ = _os(sim)

    def gen():
        result = yield from os_.read(0, 10 * GB, 4 * KB)
        return result

    result = run_process(sim, gen())
    assert not result.cache_hit
    assert result.latency > 1 * MS


def test_cache_hit_is_fast(sim):
    os_ = _os(sim, cache_pages=100)
    os_.cache.insert(0, 0, 4 * KB)

    def gen():
        result = yield from os_.read(0, 0, 4 * KB)
        return result

    result = run_process(sim, gen())
    assert result.cache_hit
    assert result.latency < 100.0  # microseconds, not milliseconds


def test_cache_miss_populates_cache(sim):
    os_ = _os(sim, cache_pages=100)

    def gen():
        first = yield from os_.read(0, 0, 4 * KB)
        second = yield from os_.read(0, 0, 4 * KB)
        return first, second

    first, second = run_process(sim, gen())
    assert not first.cache_hit
    assert second.cache_hit


def test_deadline_read_gets_ebusy_when_busy(sim):
    os_ = _os(sim, mitt=True)
    # Saturate the disk: several large reads.
    for i in range(6):
        sim.process(os_.read(0, i * 10 * GB, 4096 * KB, pid=9))

    def gen():
        result = yield from os_.read(0, 4 * GB, 4 * KB, pid=1,
                                     deadline=5 * MS)
        return result, sim.now

    result, at = run_process(sim, gen())
    assert is_ebusy(result)
    # Rejected for the queue: the same read on an idle disk is accepted.
    assert result.predicted_wait > 5 * MS
    assert at < 1 * MS  # rejection is instant (microseconds)
    assert os_.ebusy_returned == 1


def test_deadline_read_accepted_when_idle(sim):
    os_ = _os(sim, mitt=True)

    def gen():
        result = yield from os_.read(0, 10 * GB, 4 * KB, pid=1,
                                     deadline=50 * MS)
        return result

    result = run_process(sim, gen())
    assert not is_ebusy(result)
    assert result.latency < 50 * MS


def test_addrcheck_resident_ok(sim):
    os_ = _os(sim, cache_pages=100, mitt=True)
    os_.cache.insert(0, 0, 4 * KB)
    assert os_.addrcheck(0, 0, 4 * KB, deadline=100.0) is True


def test_addrcheck_missing_with_tiny_deadline_is_ebusy(sim):
    os_ = _os(sim, cache_pages=100, mitt=True)
    verdict = os_.addrcheck(0, 0, 4 * KB, deadline=10.0)
    assert is_ebusy(verdict)
    # Fairness caveat: the OS swaps the page in anyway (§4.4).
    assert os_.cache.resident(0, 0, 4 * KB)


def test_addrcheck_missing_with_roomy_deadline_is_ok(sim):
    os_ = _os(sim, cache_pages=100, mitt=True)
    assert os_.addrcheck(0, 0, 4 * KB, deadline=100 * MS) is True


def test_addrcheck_without_cache_raises(sim):
    os_ = _os(sim)
    with pytest.raises(RuntimeError):
        os_.addrcheck(0, 0, 4 * KB, deadline=1.0)


def test_write_is_buffered_and_fast(sim):
    os_ = _os(sim)

    def gen():
        start = sim.now
        yield from os_.write(0, 0, 1 * KB)
        return sim.now - start

    latency = run_process(sim, gen())
    assert latency < 100.0


def test_writes_flush_in_background(sim):
    os_ = _os(sim)

    def gen():
        for i in range(10):
            yield from os_.write(0, i * KB, 1024 * KB)
        return None

    run_process(sim, gen())
    sim.run()
    assert os_.device.completed > 0  # flusher issued real IOs


def test_a_read_allocates_an_event_only_for_device_io(monkeypatch):
    """A cache hit and a fast EBUSY wait out their delay; only a device
    read waits on an event, the one ``submit_raw`` returns."""
    recorder = TraceRecorder()
    sim = Simulator(seed=42, recorder=recorder)
    os_ = _os(sim, cache_pages=100, mitt=True)
    os_.cache.insert(0, 0, 4 * KB)
    allocations = []
    make_event = sim.event

    def counting_event():
        allocations.append(sim.now)
        return make_event()

    monkeypatch.setattr(sim, "event", counting_event)

    def read(offset, deadline=None):
        """(result, events allocated, start time) of one driven read."""
        before, start = len(allocations), sim.now

        def gen():
            return (yield from os_.read(0, offset, 4 * KB, deadline=deadline))

        result = run_process(sim, gen())
        return result, len(allocations) - before, start

    hit, events, _ = read(0)
    assert events == 0
    assert hit.cache_hit and hit.predicted_wait is None
    assert hit.latency == os_._memory_read_time(0, 4 * KB)

    done, events, start = read(10 * GB, deadline=50 * MS)
    (accepted,) = recorder.by_topic(VERDICT)
    (complete,) = recorder.by_topic(IO_COMPLETE)
    assert events == 1
    assert not done.cache_hit
    assert done.latency == complete.time - start
    assert done.predicted_wait == accepted.fields["predicted_wait"]

    for i in range(4):
        os_.scheduler.submit(BlockRequest(IoOp.READ, i * 100 * GB,
                                          2048 * KB, pid=9))
    rejected, events, _ = read(500 * GB, deadline=5 * MS)
    verdict = recorder.by_topic(VERDICT)[-1]
    assert events == 0
    assert is_ebusy(rejected) and not verdict.fields["accept"]
    assert rejected.predicted_wait == verdict.fields["predicted_wait"] > 0
    assert os_.ebusy_returned == 1


def test_memory_read_time_charges_actual_pages_touched(sim):
    """Regression: ``_memory_read_time`` ignored the read's offset, so an
    unaligned read spanning two pages was billed like an aligned one."""
    os_ = _os(sim, cache_pages=100)
    os_.cache.insert(0, 0, 8 * KB)  # pages 0 and 1 resident
    p = os_.params

    def gen():
        aligned = yield from os_.read(0, 0, 4 * KB)
        unaligned = yield from os_.read(0, 2 * KB, 4 * KB)  # straddles 0|1
        return aligned, unaligned

    aligned, unaligned = run_process(sim, gen())
    assert aligned.cache_hit and unaligned.cache_hit
    one_page = p.syscall_us + p.memory_read_base_us \
        + p.memory_read_per_page_us
    assert aligned.latency == one_page
    assert unaligned.latency == one_page + p.memory_read_per_page_us


def test_addrcheck_ebusy_counted_separately(sim):
    os_ = _os(sim, cache_pages=100, mitt=True)
    verdict = os_.addrcheck(0, 0, 4 * KB, deadline=10.0)
    assert is_ebusy(verdict)
    assert os_.addrcheck_ebusy == 1
    # Legacy compat: ebusy_returned still includes probe rejections.
    assert os_.ebusy_returned == 1
    for i in range(6):
        sim.process(os_.read(0, i * 10 * GB, 4096 * KB, pid=9))

    def gen():
        result = yield from os_.read(0, 4 * GB, 4 * KB, pid=1,
                                     deadline=5 * MS)
        return result

    result = run_process(sim, gen())
    assert is_ebusy(result)
    assert result.predicted_wait > 5 * MS
    assert os_.ebusy_returned == 2
    assert os_.addrcheck_ebusy == 1  # read-path EBUSY is not a probe


def test_addrcheck_probe_verdicts_tagged_on_bus():
    from repro.obs.events import OS_EBUSY

    rec = TraceRecorder()
    sim = Simulator(seed=4, recorder=rec)
    os_ = _os(sim, cache_pages=100, mitt=True)
    assert is_ebusy(os_.addrcheck(0, 0, 4 * KB, deadline=10.0))
    (verdict,) = rec.by_topic(VERDICT)
    assert verdict.fields["probe"] is True
    assert verdict.fields["accept"] is False
    (ebusy,) = rec.by_topic(OS_EBUSY)
    assert ebusy.fields["probe"] is True


def test_late_cancellation_returns_ebusy(sim):
    """MittCFQ bump-back: accepted IO cancelled later -> EBUSY."""
    os_ = _os(sim, mitt=True, depth=1)

    def gen():
        sim.process(os_.read(0, 0, 4 * KB, pid=9))  # briefly occupy the device
        # Admitted comfortably: predicted ~ one small read ahead.
        ev = sim.process(os_.read(0, 700 * GB, 4 * KB, pid=1,
                                  deadline=25 * MS))
        # A flood of closer, earlier-offset IOs bumps the deadline IO back.
        for i in range(20):
            sim.process(os_.read(0, i * GB, 1024 * KB, pid=1))
        result = yield ev
        return result

    result = run_process(sim, gen())
    assert is_ebusy(result)
    assert os_.predictor.late_cancellations >= 1

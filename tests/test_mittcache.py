"""Tests of MittCache (§4.4)."""

import pytest

from repro._units import GB, KB, MS
from repro.devices import Disk, DiskParams
from repro.devices.disk_profile import profile_disk
from repro.errors import is_ebusy
from repro.kernel import CfqScheduler, OS, PageCache
from repro.mittos import MittCache, MittCfq

MODEL = profile_disk(lambda sim: Disk(sim, DiskParams(
    jitter_frac=0.0, hiccup_prob=0.0)))


def _stack(sim, stacked=True):
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    sched = CfqScheduler(sim, disk)
    io_pred = MittCfq(MODEL) if stacked else None
    predictor = MittCache(io_predictor=io_pred)
    cache = PageCache(sim, 1000)
    os_ = OS(sim, disk, sched, cache=cache, predictor=predictor)
    return os_, predictor


def test_requires_cache(sim):
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    sched = CfqScheduler(sim, disk)
    with pytest.raises(RuntimeError):
        OS(sim, disk, sched, cache=None, predictor=MittCache())


def test_stacked_predictor_hooks_register_once(sim):
    os_, predictor = _stack(sim)
    sched, io_pred = os_.scheduler, predictor.io_predictor
    for hooks, fn in ((sched._submit_listeners, io_pred._on_submit),
                      (sched._dispatch_listeners, io_pred._on_dispatch),
                      (sched._complete_listeners, io_pred._on_complete)):
        assert hooks.count(fn) == 1


def test_resident_addrcheck_true(sim):
    os_, _ = _stack(sim)
    os_.cache.insert(0, 0, 4 * KB)
    assert os_.addrcheck(0, 0, 4 * KB, deadline=50.0) is True


def test_miss_small_deadline_ebusy_and_swapin(sim):
    os_, _ = _stack(sim)
    verdict = os_.addrcheck(0, 0, 4 * KB, deadline=50.0)
    assert is_ebusy(verdict)
    assert os_.cache.background_swapins == 1


def test_miss_propagates_to_io_predictor(sim):
    os_, predictor = _stack(sim)
    # Idle disk, generous deadline: the stacked MittCFQ accepts.
    assert os_.addrcheck(0, 0, 4 * KB, deadline=50 * MS) is True
    # Busy disk: propagated deadline rejected.
    for i in range(6):
        sim.process(os_.read(0, (10 + i * 100) * GB, 2048 * KB, pid=9))
    sim.run(until=sim.now)
    assert is_ebusy(os_.addrcheck(0, 4 * GB, 4 * KB, deadline=10 * MS))


def test_unstacked_guard_uses_min_io_floor(sim):
    os_, predictor = _stack(sim, stacked=False)
    assert predictor.min_io_latency(4 * KB) == pytest.approx(1 * MS)
    assert is_ebusy(os_.addrcheck(0, 0, 4 * KB, deadline=0.1 * MS))
    assert os_.addrcheck(0, 4 * GB, 4 * KB, deadline=10 * MS) is True


def test_unstacked_shadow_guard_runs_the_io_and_records_ebusy(sim):
    """A lone shadow MittCache records the would-be EBUSY of a miss whose
    deadline is below the device floor, and serves the read anyway."""
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    predictor = MittCache(shadow=True)
    os_ = OS(sim, disk, CfqScheduler(sim, disk), cache=PageCache(sim, 1000),
             predictor=predictor)
    issued = []
    os_.scheduler.add_dispatch_listener(issued.append)

    def gen():
        result = yield from os_.read(0, 0, 4 * KB, deadline=0.1 * MS)
        return result

    proc = sim.process(gen())
    sim.run()
    assert not is_ebusy(proc.value)
    assert not proc.value.cache_hit
    assert [req.shadow_ebusy for req in issued] == [True]
    assert (predictor.admitted, predictor.rejected) == (1, 0)


def test_read_path_hit_bypasses_predictor(sim):
    os_, predictor = _stack(sim)
    os_.cache.insert(0, 0, 4 * KB)

    def gen():
        result = yield from os_.read(0, 0, 4 * KB, deadline=50.0)
        return result

    proc = sim.process(gen())
    sim.run()
    assert not is_ebusy(proc.value)
    assert proc.value.cache_hit


def test_read_path_miss_consults_stacked_predictor(sim):
    os_, predictor = _stack(sim)
    for i in range(6):
        sim.process(os_.read(0, (10 + i * 100) * GB, 2048 * KB, pid=9))

    def gen():
        result = yield from os_.read(0, 4 * GB, 4 * KB, deadline=5 * MS)
        return result

    proc = sim.process(gen())
    sim.run()
    assert is_ebusy(proc.value)

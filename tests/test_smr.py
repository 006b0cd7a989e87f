"""Tests of the SMR drive model and MittSMR (§8.2)."""

import pytest

from repro._units import GB, KB, MB, MS
from repro.devices import BlockRequest, Disk, DiskParams, IoOp
from repro.devices.disk_profile import profile_disk
from repro.devices.smr import SmrDisk, SmrParams
from repro.errors import is_ebusy
from repro.kernel import NoopScheduler, OS
from repro.mittos.mittsmr import MittSmr

MODEL = profile_disk(lambda sim: Disk(sim, DiskParams(
    jitter_frac=0.0, hiccup_prob=0.0)))


def _params(**kw):
    defaults = dict(jitter_frac=0.0, hiccup_prob=0.0,
                    persistent_cache_bytes=8 * MB, band_bytes=4 * MB,
                    band_clean_time_us=100 * MS)
    defaults.update(kw)
    return SmrParams(**defaults)


def _stack(sim, cleaning_aware=True, **kw):
    smr = SmrDisk(sim, _params(**kw))
    sched = NoopScheduler(sim, smr)
    predictor = MittSmr(MODEL, smr, cleaning_aware=cleaning_aware)
    os_ = OS(sim, smr, sched, predictor=predictor)
    return os_, predictor, smr


def _fill_cache(sim, os_, n_writes=8, size=1 * MB):
    def writer():
        for i in range(n_writes):
            req = BlockRequest(IoOp.WRITE, i * 100 * MB, size)
            done = sim.event()
            req.add_callback(lambda r: done.try_succeed())
            os_.scheduler.submit(req)
            yield done

    proc = sim.process(writer())
    sim.run_until(proc)


def test_writes_fill_the_persistent_cache(sim):
    os_, _, smr = _stack(sim)
    _fill_cache(sim, os_, n_writes=4)
    assert smr.cache_fill_fraction == pytest.approx(0.5)


def test_cleaning_triggers_at_threshold(sim):
    os_, _, smr = _stack(sim)
    _fill_cache(sim, os_, n_writes=8)  # 8 MB = 100% > 80% trigger
    assert smr.cleaning or smr.bands_cleaned > 0
    sim.run()
    assert smr.bands_cleaned >= 1
    assert smr.cache_fill_fraction <= 0.5 + 1e-9


def test_reads_stall_behind_cleaning(sim):
    os_, _, smr = _stack(sim)
    _fill_cache(sim, os_, n_writes=8)
    assert smr.cleaning
    req = BlockRequest(IoOp.READ, 500 * GB, 4 * KB)
    req.add_callback(lambda r: None)
    start = sim.now
    done = sim.event()
    req.add_callback(lambda r: done.try_succeed())
    os_.scheduler.submit(req)
    sim.run_until(done)
    assert done.triggered
    assert sim.now - start > 50 * MS  # waited out (part of) the cleaning


def test_mittsmr_rejects_reads_during_cleaning(sim):
    os_, predictor, smr = _stack(sim)
    _fill_cache(sim, os_, n_writes=8)
    assert smr.cleaning

    def gen():
        result = yield from os_.read(0, 500 * GB, 4 * KB, deadline=20 * MS)
        return result

    proc = sim.process(gen())
    sim.run_until(proc)
    assert is_ebusy(proc.value)


def test_cleaning_blind_predictor_misses_the_tail(sim):
    os_, predictor, smr = _stack(sim, cleaning_aware=False)
    _fill_cache(sim, os_, n_writes=8)
    assert smr.cleaning

    def gen():
        result = yield from os_.read(0, 500 * GB, 4 * KB, deadline=20 * MS)
        return result

    proc = sim.process(gen())
    sim.run_until(proc)
    # Accepted (false negative): the read then blows its deadline.
    assert not is_ebusy(proc.value)
    assert proc.value.latency > 20 * MS


def test_mittsmr_accepts_when_idle(sim):
    os_, predictor, smr = _stack(sim)

    def gen():
        result = yield from os_.read(0, 500 * GB, 4 * KB, deadline=30 * MS)
        return result

    proc = sim.process(gen())
    sim.run_until(proc)
    assert not is_ebusy(proc.value)


def test_random_writes_are_fast_until_cleaning(sim):
    """SMR's persistent cache absorbs random writes cheaply."""
    os_, _, smr = _stack(sim, persistent_cache_bytes=64 * MB)
    latencies = []

    def writer():
        rng = sim.rng("w")
        for _ in range(10):
            req = BlockRequest(IoOp.WRITE,
                               rng.randrange(0, 900 * GB) // 4096 * 4096,
                               64 * KB)
            done = sim.event()
            req.add_callback(lambda r: done.try_succeed())
            start = sim.now
            os_.scheduler.submit(req)
            yield done
            latencies.append(sim.now - start)

    proc = sim.process(writer())
    sim.run_until(proc)
    # Cache-absorbed writes avoid the full-stroke seek cost.
    assert max(latencies) < 5 * MS


def test_clean_observer_reports_start_and_stop(sim):
    os_, _, smr = _stack(sim)
    events = []
    smr.add_clean_observer(lambda kind, t: events.append(kind))
    _fill_cache(sim, os_, n_writes=8)
    sim.run()
    assert "start" in events and "stop" in events

"""Tests of the MongoDB-like mmap engine."""

import pytest

from repro._units import GB, KB, MS
from repro.devices import Disk, DiskParams
from repro.devices.disk_profile import profile_disk
from repro.engines import KeySpace, MMapEngine
from repro.errors import is_ebusy
from repro.kernel import CfqScheduler, OS, PageCache
from repro.mittos import MittCfq
from tests.conftest import run_process

MODEL = profile_disk(lambda sim: Disk(sim, DiskParams(
    jitter_frac=0.0, hiccup_prob=0.0)))


def _engine(sim, cache_pages=None, mitt=True, use_addrcheck=None):
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    sched = CfqScheduler(sim, disk)
    predictor = MittCfq(MODEL) if mitt else None
    cache = PageCache(sim, cache_pages) if cache_pages else None
    if cache is not None and predictor is not None:
        from repro.mittos import MittCache
        predictor = MittCache(io_predictor=predictor)
    os_ = OS(sim, disk, sched, cache=cache, predictor=predictor)
    ks = KeySpace(1000, value_size=1 * KB, span_bytes=10 * GB)
    return MMapEngine(os_, ks, use_addrcheck=use_addrcheck), os_


def test_addrcheck_requires_cache(sim):
    with pytest.raises(ValueError):
        _engine(sim, cache_pages=None, use_addrcheck=True)


def test_get_from_disk(sim):
    engine, _ = _engine(sim)
    record = run_process(sim, engine.get(5))
    assert record.key == 5
    assert not record.cache_hit
    assert record.engine_latency > 1 * MS


def test_get_from_cache(sim):
    engine, _ = _engine(sim, cache_pages=2000)
    engine.preload([5])
    record = run_process(sim, engine.get(5, deadline=1 * MS))
    assert record.cache_hit
    assert record.engine_latency < 100.0


def test_addrcheck_path_returns_ebusy_on_miss(sim):
    engine, os_ = _engine(sim, cache_pages=2000)
    # key not preloaded and deadline below any disk IO:
    result = run_process(sim, engine.get(7, deadline=50.0))
    assert is_ebusy(result)
    assert engine.ebusy == 1


def test_read_path_ebusy_when_disk_busy(sim):
    engine, os_ = _engine(sim, use_addrcheck=False)
    for i in range(6):
        sim.process(os_.read(0, i * GB, 2048 * KB, pid=9))
    result = run_process(sim, engine.get(7, deadline=5 * MS))
    assert is_ebusy(result)


def test_no_deadline_never_ebusy(sim):
    engine, os_ = _engine(sim)
    for i in range(6):
        sim.process(os_.read(0, i * GB, 2048 * KB, pid=9))
    record = run_process(sim, engine.get(7))
    assert not is_ebusy(record)


def test_put_is_buffered(sim):
    engine, os_ = _engine(sim)

    def gen():
        start = sim.now
        yield sim.process(engine.put(3))
        return sim.now - start

    assert run_process(sim, gen()) < 200.0


def test_put_populates_cache(sim):
    engine, os_ = _engine(sim, cache_pages=2000)
    run_process(sim, engine.put(3))
    offset, size = engine.keyspace.locate(3)
    assert os_.cache.resident(engine.file_id, offset, size)


def test_gets_counted(sim):
    engine, _ = _engine(sim)
    run_process(sim, engine.get(1))
    run_process(sim, engine.get(2))
    assert engine.gets == 2

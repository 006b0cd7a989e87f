"""Tests of the LevelDB-like LSM engine."""

from repro._units import GB, KB, MS
from repro.devices import Disk, DiskParams
from repro.devices.disk_profile import profile_disk
from repro.engines import LsmEngine
from repro.errors import is_ebusy
from repro.kernel import CfqScheduler, OS
from repro.mittos import MittCfq
from tests.conftest import run_process

MODEL = profile_disk(lambda sim: Disk(sim, DiskParams(
    jitter_frac=0.0, hiccup_prob=0.0)))


def _engine(sim, mitt=True, **kw):
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    sched = CfqScheduler(sim, disk)
    predictor = MittCfq(MODEL) if mitt else None
    os_ = OS(sim, disk, sched, predictor=predictor)
    return LsmEngine(os_, **kw), os_


def test_get_from_memtable_is_memory_speed(sim):
    engine, _ = _engine(sim)
    run_process(sim, engine.put(5))
    record = run_process(sim, engine.get(5))
    assert record.cache_hit
    assert record.engine_latency < 100.0


def test_get_from_sstable_reads_disk(sim):
    engine, _ = _engine(sim)
    engine.load_bulk(range(100))
    record = run_process(sim, engine.get(50))
    assert not record.cache_hit
    assert record.engine_latency > 1 * MS


def test_get_missing_key_returns_none(sim):
    engine, _ = _engine(sim)
    engine.load_bulk(range(100))
    assert run_process(sim, engine.get(5000)) is None


def test_memtable_flush_creates_l0_runs(sim):
    engine, _ = _engine(sim, memtable_limit=10, l0_compaction_trigger=100)

    def gen():
        for k in range(25):
            yield sim.process(engine.put(k))

    run_process(sim, gen())
    assert len(engine._l0) == 2
    # keys from flushed runs still readable:
    record = run_process(sim, engine.get(3))
    assert record is not None


def test_compaction_merges_l0_into_l1(sim):
    engine, _ = _engine(sim, memtable_limit=8, l0_compaction_trigger=3)

    def gen():
        for k in range(40):
            yield sim.process(engine.put(k))
        yield 5_000 * MS  # let background compaction drain

    run_process(sim, gen())
    sim.run()
    assert engine.compactions >= 1
    assert len(engine._l0) < 3
    # All keys still resolvable after the merge:
    for key in (0, 17, 31):
        result = run_process(sim, engine.get(key))
        assert result is not None


def test_ebusy_propagates_out_of_engine(sim):
    """§5: LevelDB returns EBUSY up to Riak."""
    engine, os_ = _engine(sim)
    engine.load_bulk(range(100))
    for i in range(6):
        sim.process(os_.read(9, i * GB, 2048 * KB, pid=9))
    result = run_process(sim, engine.get(50, deadline=5 * MS))
    assert is_ebusy(result)
    assert engine.ebusy == 1


def test_bloom_filter_skips_most_absent_tables(sim):
    engine, os_ = _engine(sim, bloom_fp_rate=0.0)
    engine.load_bulk(range(100), tables=10)
    reads_before = os_.reads
    run_process(sim, engine.get(5000))
    # With a perfect bloom filter, no table read happens at all.
    assert os_.reads == reads_before


def test_load_bulk_ranges_are_disjoint(sim):
    engine, _ = _engine(sim)
    engine.load_bulk(range(1000), tables=8)
    tables = engine._l1
    assert len(tables) >= 8
    for a, b in zip(tables, tables[1:]):
        assert a.hi < b.lo

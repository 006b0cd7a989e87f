"""Tests of the LevelDB-like LSM engine."""

import hashlib
import struct

from repro._units import GB, KB, MS, SEC
from repro.devices import Disk, DiskParams
from repro.devices.disk_profile import profile_disk
from repro.engines import LsmEngine
from repro.errors import is_ebusy
from repro.experiments import fig13
from repro.kernel import CfqScheduler, OS
from repro.mittos import MittCfq
from repro.sim import Simulator
from tests.conftest import run_process

MODEL = profile_disk(lambda sim: Disk(sim, DiskParams(
    jitter_frac=0.0, hiccup_prob=0.0)))


def _engine(sim, mitt=True, **kw):
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    sched = CfqScheduler(sim, disk)
    predictor = MittCfq(MODEL) if mitt else None
    os_ = OS(sim, disk, sched, predictor=predictor)
    return LsmEngine(os_, **kw), os_


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


def test_fig13_read_path_is_pinned(monkeypatch):
    """Golden: fig13's Base and MittOS (5 ms) lines on 5 LSM nodes, 4
    clients x 150 gets.  No scenario hook reaches fig13, so this pins its
    read path: each line's samples, final clock and node-0 timeline, and
    the EBUSYs the MittOS line's engines propagate to the coordinator."""
    envs = []
    build = fig13.build_lsm_cluster

    def build_and_keep(*args):
        envs.append(build(*args))
        return envs[-1]

    monkeypatch.setattr(fig13, "build_lsm_cluster", build_and_keep)
    params = dict(n_nodes=5, n_keys=1_500, n_clients=4, n_ops=150,
                  horizon_us=4 * SEC)
    pinned = {
        "base": (None,
                 "d8dc0a62257c419a84e96ca30e17a82c82ee7b8a2c9ae11906cd91df"
                 "8546b83e", 1869810.3950127712,
                 [(450000.0, 5, 0), (950000.0, 6, 0), (1450000.0, 1, 0)], 0),
        "mittos": (5 * MS,
                   "8af3e853026b25129cb0a30cdbf761f54854aacc6b64cebf5a9777ba"
                   "b6ccbfd6", 1367757.5729295732,
                   [(450000.0, 2, 30), (950000.0, 2, 48)], 176),
    }
    for name, (deadline, digest, now, timeline, ebusy) in pinned.items():
        sim = Simulator(seed=7)
        recorder, line_timeline = fig13._run_line(sim, name, deadline,
                                                  params)
        samples = recorder.samples
        assert len(samples) == 600
        packed = struct.pack(f"<{len(samples)}d", *samples)
        assert hashlib.sha256(packed).hexdigest() == digest, name
        assert sim.now == now, name
        assert line_timeline == timeline, name
        assert sum(node.engine.ebusy for node in envs[-1].nodes) == ebusy

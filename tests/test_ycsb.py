"""Tests of the YCSB-like driver."""

from repro._units import MS, SEC
from repro.experiments.common import build_disk_cluster, make_strategy
from repro.workloads import UniformKeys
from repro.workloads.ycsb import YcsbClient, run_ycsb
from repro.metrics.latency import LatencyRecorder


def test_client_records_one_latency_per_op(sim):
    env = build_disk_cluster(sim, 3)
    strategy = make_strategy("base", env.cluster)
    rec = LatencyRecorder()
    client = YcsbClient(sim, strategy, UniformKeys(100, sim.rng("k")),
                        rec, n_ops=10, think_time_us=1 * MS)
    proc = client.run()
    sim.run_until(proc, limit=60 * SEC)
    assert len(rec) == 10
    assert proc.value == 10


def test_scale_factor_waits_for_all(sim):
    env = build_disk_cluster(sim, 6)
    strategy = make_strategy("base", env.cluster)
    rec_sf1 = LatencyRecorder()
    rec_sf5 = LatencyRecorder()
    c1 = YcsbClient(sim, strategy, UniformKeys(500, sim.rng("a")),
                    rec_sf1, n_ops=20, scale_factor=1)
    c5 = YcsbClient(sim, strategy, UniformKeys(500, sim.rng("b")),
                    rec_sf5, n_ops=20, scale_factor=5)
    p1, p5 = c1.run(), c5.run()
    sim.run_until(sim.all_of([p1, p5]), limit=120 * SEC)
    # max-of-5 stochastically dominates a single sample.
    assert rec_sf5.mean_ms > rec_sf1.mean_ms


def test_run_ycsb_merges_recorders(sim):
    env = build_disk_cluster(sim, 3)
    strategy = make_strategy("base", env.cluster)
    dists = [UniformKeys(100, sim.rng(f"k{i}")) for i in range(4)]
    rec, procs = run_ycsb(sim, strategy, dists, 4, 5,
                          name="test")
    sim.run_until(sim.all_of(procs), limit=60 * SEC)
    assert len(rec) == 20
    assert rec.name == "test"

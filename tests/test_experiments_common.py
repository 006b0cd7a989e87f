"""Tests of the shared experiment harness (builders, runners, results)."""

import pytest

from repro._units import MS, SEC
from repro.experiments.common import (ExperimentResult,
                                      build_cache_cluster,
                                      build_disk_cluster, build_lsm_node,
                                      build_ssd_cluster,
                                      disk_latency_model, make_strategy,
                                      percentile_rows, run_clients,
                                      run_ec2_disk_line)
from repro.metrics.latency import LatencyRecorder
from repro.sim import Simulator


def test_disk_latency_model_is_cached():
    assert disk_latency_model() is disk_latency_model()


def test_build_disk_cluster_shape(sim):
    env = build_disk_cluster(sim, 5)
    assert len(env.nodes) == 5
    assert len(env.injectors) == 5
    assert all(n.os.predictor is not None for n in env.nodes)


def test_build_disk_cluster_without_mitt(sim):
    env = build_disk_cluster(sim, 3, mitt=False)
    assert all(n.os.predictor is None for n in env.nodes)


def test_unknown_scheduler_rejected(sim):
    with pytest.raises(ValueError):
        build_disk_cluster(sim, 3, scheduler="deadline")


def test_cache_cluster_is_preloaded(sim):
    env = build_cache_cluster(sim, 3, n_keys=500)
    node = env.nodes[0]
    offset, size = env.keyspace.locate(100)
    assert node.os.cache.resident(0, offset, size)


def test_cache_cluster_stacks_mittcache(sim):
    from repro.mittos import MittCache
    env = build_cache_cluster(sim, 3, n_keys=500)
    assert isinstance(env.nodes[0].os.predictor, MittCache)
    assert env.nodes[0].os.predictor.io_predictor is not None


def test_ssd_cluster_shares_cpu(sim):
    env = build_ssd_cluster(sim, 4, shared_cpu_slots=8)
    cpus = {id(n.cpu) for n in env.nodes}
    assert len(cpus) == 1  # one physical machine


def test_lsm_node_is_loaded(sim):
    node = build_lsm_node(sim, 0, range(200))
    assert node.engine._l1


def test_make_strategy_rejects_unknown(sim):
    env = build_disk_cluster(sim, 3)
    with pytest.raises(ValueError):
        make_strategy("yolo", env.cluster)


def test_run_clients_unknown_keydist(sim):
    env = build_disk_cluster(sim, 3)
    strategy = make_strategy("base", env.cluster)
    with pytest.raises(ValueError):
        run_clients(env, strategy, 1, 1, key_dist="pareto")


def test_run_clients_zipfian(sim):
    env = build_disk_cluster(sim, 3)
    strategy = make_strategy("base", env.cluster)
    rec = run_clients(env, strategy, 2, 10, key_dist="zipfian",
                      limit_us=60 * SEC)
    assert len(rec) == 20


def test_run_ec2_disk_line_is_seed_deterministic():
    a, _, _ = run_ec2_disk_line(Simulator(seed=3), "base", n_nodes=5,
                                n_clients=3, n_ops=30, horizon_us=20 * SEC)
    b, _, _ = run_ec2_disk_line(Simulator(seed=3), "base", n_nodes=5,
                                n_clients=3, n_ops=30, horizon_us=20 * SEC)
    assert a.samples == b.samples


def test_percentile_rows_layout():
    rec = LatencyRecorder("x")
    for i in range(1, 101):
        rec.add(i * MS)
    headers, rows = percentile_rows([rec], percentiles=(50, 95))
    assert headers == ["line", "n", "avg_ms", "p50", "p95"]
    assert rows[0][0] == "x"
    assert rows[0][1] == 100


def test_experiment_result_render_and_plots():
    result = ExperimentResult("figX", "demo")
    result.add_table("heading", ["a"], [[1]])
    result.add_note("a note")
    rec = LatencyRecorder("line")
    for i in range(10):
        rec.add((i + 1) * MS)
    result.add_plot("plot", [rec])
    out = result.render()
    assert "figX" in out and "heading" in out and "note: a note" in out
    plot = result.render_plots()
    assert "plot" in plot and "*=line" in plot

"""Tests of the shared experiment harness (builders, runners, results)."""

import pytest

from repro._units import GB, KB, MS, SEC
from repro.cluster.strategies import STRATEGIES
from repro.devices import Disk, Ssd
from repro.engines import LsmEngine
from repro.experiments import (allinone, fig4, fig9, fig11, fig12, fig13,
                               slosweep, writes)
from repro.experiments.common import (ExperimentResult,
                                      build_cache_cluster,
                                      build_disk_cluster, build_lsm_cluster,
                                      build_lsm_node, build_ssd_cluster,
                                      disk_latency_model, disk_os,
                                      make_strategy, percentile_rows,
                                      run_ec2_disk_line, ssd_os)
from repro.kernel import CfqScheduler, NoopScheduler
from repro.kernel.syscall import OsParams
from repro.metrics.latency import LatencyRecorder
from repro.mittos import MittCache, MittCfq, MittNoop, MittSsd
from repro.sim import Simulator
from repro.workloads.traces import TRACE_FAMILIES, generate_trace


def test_disk_latency_model_is_cached():
    assert disk_latency_model() is disk_latency_model()


def test_disk_os_pairs_each_scheduler_with_its_predictor(sim):
    cfq = disk_os(sim, "a")
    noop = disk_os(sim, "b", scheduler="noop")
    assert isinstance(cfq.device, Disk) and cfq.device.name == "a"
    assert isinstance(cfq.scheduler, CfqScheduler)
    assert type(cfq.predictor) is MittCfq
    assert isinstance(noop.scheduler, NoopScheduler)
    assert type(noop.predictor) is MittNoop
    assert cfq.cache is None and noop.cache is None


def test_cached_disk_os_stacks_mittcache_over_the_io_predictor(sim):
    for scheduler, io_cls in (("cfq", MittCfq), ("noop", MittNoop)):
        os_ = disk_os(sim, scheduler, scheduler=scheduler, cache_pages=64)
        assert os_.cache is not None
        assert isinstance(os_.predictor, MittCache)
        assert type(os_.predictor.io_predictor) is io_cls


def test_stacks_without_mitt_have_no_predictor(sim):
    assert disk_os(sim, "a", mitt=False).predictor is None
    cached = disk_os(sim, "b", mitt=False, cache_pages=64)
    assert cached.cache is not None and cached.predictor is None
    assert ssd_os(sim, "c", mitt=False).predictor is None


def test_ssd_os_is_ssd_noop_mittssd(sim):
    os_ = ssd_os(sim, "a")
    assert isinstance(os_.device, Ssd) and os_.device.name == "a"
    assert isinstance(os_.scheduler, NoopScheduler)
    assert isinstance(os_.predictor, MittSsd)
    assert os_.cache is None


def test_stacks_pass_their_os_params_to_the_os(sim):
    params = OsParams(failover_hop_us=0.0)
    assert disk_os(sim, "a", params=params).params is params
    assert ssd_os(sim, "b", params=params).params is params


def test_build_lsm_cluster_shape(sim):
    env = build_lsm_cluster(sim, 4, 300)
    assert env.keyspace.n_keys == 300
    assert [inj.span_bytes for inj in env.injectors] == [800 * GB] * 4
    assert all(isinstance(n.engine, LsmEngine) for n in env.nodes)
    assert all(type(n.os.predictor) is MittCfq for n in env.nodes)
    assert env.cluster.replication == 3


@pytest.mark.parametrize("name, keyword", [
    ("appto", "timeout_us"), ("hedged", "hedge_delay_us"),
    ("mittos", "deadline_us"), ("adaptive", "deadline_us")])
def test_make_strategy_passes_the_deadline_as_each_keyword(sim, name,
                                                           keyword):
    env = build_disk_cluster(sim, 3)
    strategy = make_strategy(name, env.cluster, deadline_us=7 * MS)
    assert type(strategy) is STRATEGIES[name]
    assert getattr(strategy, keyword) == 7 * MS


def test_make_strategy_gives_other_strategies_no_deadline(sim):
    env = build_disk_cluster(sim, 3)
    base = make_strategy("base", env.cluster, deadline_us=7 * MS)
    assert type(base) is STRATEGIES["base"]
    assert base.timeout_us == 30 * SEC  # its own coarse default
    assert type(make_strategy("clone", env.cluster)) is STRATEGIES["clone"]


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


# -- line builders take their simulator ---------------------------------------

def _fig4(sim):
    def noise(sim, env):
        env.injectors[0].disk_read_threads(n_threads=2, size=64 * KB,
                                           priority=6, gap_us=2 * MS)
    return fig4._run_line(sim, "disk", noise, "mittos", 20 * MS, 20).samples


def _fig11(sim):
    params = dict(n_nodes=4, n_clients=2, n_ops=20, horizon_us=2 * SEC)
    return fig11._run_line(sim, "mittos", 20 * MS, params).samples


def _fig12(sim):
    params = dict(n_clients=2, n_ops=20, horizon_us=2 * SEC)
    return fig12._run_line(sim, "c3", "1b2f-1s", None, params).samples


def _fig13(sim):
    params = dict(n_nodes=3, n_keys=300, n_clients=2, n_ops=20,
                  horizon_us=2 * SEC)
    rec, timeline = fig13._run_line(sim, "mittos", 20 * MS, params)
    return rec.samples + timeline


def _writes(sim):
    params = dict(n_nodes=3, n_clients=2, n_ops=20, horizon_us=2 * SEC)
    return writes._run_line(sim, True, params).samples


def _allinone(sim):
    recs = allinone._run_world(sim, noisy=True, mitt=True, n_ops=10)
    return [sample for rec in recs.values() for sample in rec.samples]


def _trace(sim):
    return generate_trace(TRACE_FAMILIES["DAPPS"], sim.rng("trace/DAPPS"),
                          0.5 * SEC, span_bytes=800 * GB)


def _fig9_p95(sim):
    return [fig9._measure_p95(sim, _trace(sim), "disk")]


def _fig9_shadow(sim):
    joiner = fig9._shadow_pass(sim, _trace(sim), "ssd", 1 * MS, "naive")
    return [(r.req, r.accept, r.predicted, r.actual)
            for r in joiner.records]


def _slosweep_clean(sim):
    params = dict(n_nodes=4, n_clients=2, n_ops=15, think_time_us=2 * MS,
                  horizon_us=1 * SEC)
    return slosweep._run_clean_line(sim, params).samples


@pytest.mark.parametrize("line", [
    _fig4, _fig11, _fig12, _fig13, _writes, _allinone, _fig9_p95,
    _fig9_shadow, _slosweep_clean], ids=lambda line: line.__name__[1:])
def test_line_builders_replay_on_fresh_same_seed_simulators(line):
    """Every line builder runs on the simulator it is handed, so two fresh
    ``Simulator(seed=7)`` give the same samples."""
    first = line(Simulator(seed=7))
    assert first
    assert line(Simulator(seed=7)) == first

"""Remaining behaviours: crash plumbing, race helpers, fault stacking."""

import pytest

from repro._units import GB, KB, MS

from repro.sim import Simulator


def test_defuse_suppresses_crash_report(sim):
    ev = sim.event()
    ev.fail(ValueError("x"))
    sim.defuse(ev)
    sim.schedule(1, lambda: None)
    sim.run()  # no ProcessCrashed raised


def test_schedule_at_exact_now_runs(sim):
    ran = []
    sim.schedule_at(0.0, lambda: ran.append(1))
    sim.run()
    assert ran == [1]


def test_strategy_race_returns_eio_marker_on_timeout(sim):
    from repro.experiments.common import build_disk_cluster, make_strategy
    env = build_disk_cluster(sim, 3)
    strategy = make_strategy("base", env.cluster)

    def gen():
        slow = sim.timeout(1000.0, "late")
        finished, value = yield from strategy._race(slow, 10.0)
        return finished, value

    proc = sim.process(gen())
    sim.run()
    finished, value = proc.value
    assert finished is False and value is None


def test_mittcache_fault_injection_on_unstacked_guard(sim):
    import random
    from repro.devices import Disk, DiskParams
    from repro.kernel import CfqScheduler, OS, PageCache
    from repro.mittos import FaultInjector, MittCache
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    fault = FaultInjector(random.Random(1), false_positive_rate=1.0)
    predictor = MittCache(fault_injector=fault)
    os_ = OS(sim, disk, CfqScheduler(sim, disk),
             cache=PageCache(sim, 10), predictor=predictor)
    from repro.errors import is_ebusy
    # Even a generous deadline gets flipped to EBUSY at 100% FP rate.
    assert is_ebusy(os_.addrcheck(0, 0, 4 * KB, deadline=1000 * MS))


def test_mmap_engine_addrcheck_default_follows_cache():
    from repro.devices import Disk, DiskParams
    from repro.engines import KeySpace, MMapEngine
    from repro.kernel import CfqScheduler, OS, PageCache
    sim = Simulator(seed=1)
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    ks = KeySpace(100, span_bytes=1 * GB)
    without_cache = MMapEngine(
        OS(sim, disk, CfqScheduler(sim, disk)), ks)
    assert without_cache.use_addrcheck is False
    disk2 = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    with_cache = MMapEngine(
        OS(sim, disk2, CfqScheduler(sim, disk2),
           cache=PageCache(sim, 10)), ks)
    assert with_cache.use_addrcheck is True


def test_reduction_curve_rejects_nothing_but_handles_flat_lines():
    from repro.metrics.latency import LatencyRecorder
    from repro.metrics.reduction import reduction_curve
    a, b = LatencyRecorder(), LatencyRecorder()
    for _ in range(50):
        a.add(10.0)
        b.add(5.0)
    curve = reduction_curve(a, b, lo=90, hi=99, step=3)
    assert all(r == pytest.approx(50.0) for _, r in curve)


def test_tiered_stack_counts_reads_and_ebusy(sim):
    from tests.test_flashcache_tiered import _tiers
    from repro.kernel import PageCache
    from repro.kernel.tiered import TieredStack
    flash, disk_os, _ = _tiers(sim)
    stack = TieredStack(sim, PageCache(sim, 16), flash)
    for i in range(6):
        disk_os.read(0, i * 100 * GB, 2048 * KB, pid=9)

    def gen():
        yield stack.read(0, 77 * GB, 4 * KB, deadline=5 * MS)

    proc = sim.process(gen())
    sim.run()
    assert stack.reads == 1
    assert stack.ebusy_returned == 1


def test_experiment_result_to_dict_roundtrips_via_json():
    import json
    from repro.experiments.common import ExperimentResult
    result = ExperimentResult("figX", "demo")
    result.add_table("h", ["a", "b"], [[1, 2.5], ["x", 0]])
    result.add_note("note")
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["tables"][0]["rows"][0] == [1, 2.5]
    assert payload["notes"] == ["note"]


def test_eio_sentinel_used_for_exhausted_strategies(sim):
    """Every strategy returns a value (never raises) when all fail."""
    from repro.cluster.strategies.base import Strategy
    from repro.experiments.common import build_disk_cluster
    env = build_disk_cluster(sim, 3)
    strategy = Strategy(env.cluster)
    with pytest.raises(NotImplementedError):
        next(strategy._run(1, env.nodes, strategy._op_context()))

"""Edge-case tests across modules (failure paths, boundaries, wrap-arounds)."""

import pytest

from repro._units import GB, KB, MB, MS
from repro.devices import BlockRequest, Disk, DiskParams, IoClass, IoOp
from repro.errors import is_ebusy
from repro.kernel import CfqScheduler, NoopScheduler, OS
from repro.kernel.syscall import OsParams


def _os(sim, **kw):
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    return OS(sim, disk, CfqScheduler(sim, disk), **kw)


def test_flusher_wraps_offset_without_error(sim):
    os_ = _os(sim, params=OsParams(flush_threshold_bytes=1 * MB,
                                   flush_chunk_bytes=1 * MB))
    os_._flush_offset = (1 << 38) - 512 * KB  # near the wrap point

    def gen():
        yield from os_.write(0, 0, 2 * MB)

    proc = sim.process(gen())
    sim.run()
    assert proc.ok
    assert os_._flush_offset < (1 << 38)


def test_flusher_drains_all_dirty_bytes(sim):
    os_ = _os(sim, params=OsParams(flush_threshold_bytes=1 * MB,
                                   flush_chunk_bytes=512 * KB))

    def gen():
        for _ in range(4):
            yield from os_.write(0, 0, 1 * MB)

    sim.process(gen())
    sim.run()
    assert os_._dirty_bytes == 0
    assert not os_._flusher_running


def test_probe_only_admission_reserves_nothing(sim):
    from repro.devices.disk_profile import profile_disk
    from repro.mittos import MittCfq
    model = profile_disk(lambda s: Disk(s, DiskParams(
        jitter_frac=0.0, hiccup_prob=0.0)))
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    predictor = MittCfq(model)
    OS(sim, disk, CfqScheduler(sim, disk), predictor=predictor)
    req = BlockRequest(IoOp.READ, 10 * GB, 4 * KB)
    req.abs_deadline = sim.now + 50 * MS
    predictor.admit(req, 50 * MS, probe_only=True)
    assert not predictor._ledger  # no tolerable-time entry reserved


def test_zero_size_request_rejected():
    with pytest.raises(ValueError):
        BlockRequest(IoOp.READ, 0, 0)


def test_read_result_repr():
    from repro.kernel.syscall import ReadResult
    assert "cache" in repr(ReadResult(True, 12.0))
    assert "device" in repr(ReadResult(False, 12.0))


def test_verdict_repr_and_total():
    from repro.mittos import Verdict
    verdict = Verdict(False, 100.0, 50.0)
    assert verdict.predicted_wait + verdict.predicted_service == 150.0
    assert "EBUSY" in repr(verdict)


def test_network_minimum_latency_floor(sim):
    from repro.cluster import Network
    net = Network(sim, hop_us=1.0, jitter_us=100.0)
    assert all(net.hop_latency() >= 1.0 for _ in range(200))


def test_strategy_race_helper_cleans_up(sim):
    """AppTO abandoning a try must not corrupt later completions."""
    from repro.experiments.common import build_disk_cluster, make_strategy
    env = build_disk_cluster(sim, 6)
    env.injectors[0].busy_window(2_000_000, concurrency=5)
    env.cluster.primary_fn = lambda key: 0
    strategy = make_strategy("appto", env.cluster, deadline_us=10 * MS)
    results = []

    def client():
        for key in range(5):
            result = yield strategy.get(key)
            results.append(result)

    proc = sim.process(client())
    sim.run_until(proc, limit=60_000_000)
    assert len(results) == 5
    assert all(r is not None and not is_ebusy(r) for r in results)


def test_ebusy_is_fast_even_under_extreme_queueing(sim):
    """§3.3: syscall + EBUSY stays microseconds regardless of queue depth."""
    from repro.devices.disk_profile import profile_disk
    from repro.mittos import MittCfq
    model = profile_disk(lambda s: Disk(s, DiskParams(
        jitter_frac=0.0, hiccup_prob=0.0)))
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    os_ = OS(sim, disk, CfqScheduler(sim, disk),
             predictor=MittCfq(model))
    for i in range(100):
        sim.process(os_.read(0, i * GB, 1024 * KB, pid=i % 10))

    def gen():
        start = sim.now
        result = yield from os_.read(0, 500 * GB, 4 * KB, pid=1,
                                     deadline=10 * MS)
        return result, sim.now - start

    proc = sim.process(gen())
    sim.run_until(proc)
    result, elapsed = proc.value
    assert is_ebusy(result)
    assert elapsed < 100.0  # microseconds, not a queue wait


def test_cancelled_request_excluded_from_estimates(sim):
    from repro.devices.disk_profile import profile_disk
    from repro.mittos import MittCfq
    model = profile_disk(lambda s: Disk(s, DiskParams(
        jitter_frac=0.0, hiccup_prob=0.0)))
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0,
                                queue_depth=1))
    sched = CfqScheduler(sim, disk)
    predictor = MittCfq(model)
    OS(sim, disk, sched, predictor=predictor)
    sched.submit(BlockRequest(IoOp.READ, 0, 4 * KB))
    big = BlockRequest(IoOp.READ, 100 * GB, 4096 * KB, pid=2)
    sched.submit(big)
    probe = BlockRequest(IoOp.READ, 200 * GB, 4 * KB, pid=3)
    wait_with, _ = predictor._estimate(probe)
    sched.cancel(big)
    wait_without, _ = predictor._estimate(probe)
    assert wait_without < wait_with


def test_noop_scheduler_on_ssd_passthrough(sim):
    from repro.devices import Ssd, SsdGeometry
    ssd = Ssd(sim, SsdGeometry(jitter_frac=0.0))
    sched = NoopScheduler(sim, ssd)
    for i in range(50):
        sched.submit(BlockRequest(IoOp.READ, i * 16 * KB, 16 * KB))
    assert sched.queued == 0  # the SSD absorbs everything immediately
    sim.run()
    assert ssd.completed == 50


def test_idle_class_request_eventually_served_alone(sim):
    os_ = _os(sim)

    def gen():
        result = yield from os_.read(0, 10 * GB, 4 * KB,
                                     ioclass=IoClass.IDLE, priority=7)
        return result

    proc = sim.process(gen())
    sim.run()
    assert proc.value.latency > 0

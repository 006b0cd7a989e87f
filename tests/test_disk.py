"""Tests of the rotating-disk model."""

import pytest

from repro._units import GB, KB, MS
from repro.devices import BlockRequest, Disk, DiskParams, IoOp


def _quiet_params(**kw):
    """Deterministic disk: no jitter, no hiccups."""
    defaults = dict(jitter_frac=0.0, hiccup_prob=0.0)
    defaults.update(kw)
    return DiskParams(**defaults)


def _read(offset, size=4 * KB):
    return BlockRequest(IoOp.READ, offset, size)


def submit_and_run(sim, disk, reqs):
    for req in reqs:
        req.submit_time = sim.now
        disk.submit(req)
    sim.run()


def test_service_time_model_components(sim):
    disk = Disk(sim, _quiet_params())
    req = _read(100 * GB, 4 * KB)
    expected = (2000.0 + 12.0 * 100 + 10.0 * 4)
    assert disk.model_service_time(0, req) == pytest.approx(expected)


def test_write_penalty_applied(sim):
    disk = Disk(sim, _quiet_params())
    read = _read(0, 4 * KB)
    write = BlockRequest(IoOp.WRITE, 0, 4 * KB)
    assert (disk.model_service_time(0, write)
            == pytest.approx(disk.model_service_time(0, read) * 1.1))


def test_single_io_latency_matches_model(sim):
    disk = Disk(sim, _quiet_params())
    req = _read(10 * GB)
    submit_and_run(sim, disk, [req])
    assert req.latency == pytest.approx(
        disk.model_service_time(0, req))


def test_serial_service_never_overlaps(sim):
    """Regression: completion callbacks resubmitting must not start a
    second IO while one is in service (the re-entrancy bug)."""
    disk = Disk(sim, _quiet_params())
    completions = []

    def chained(req):
        completions.append(sim.now)
        if len(completions) < 5:
            nxt = _read(req.offset)  # zero-seek follow-up
            nxt.add_callback(chained)
            disk.submit(nxt)

    first = _read(0)
    first.add_callback(chained)
    disk.submit(first)
    sim.run()
    assert len(completions) == 5
    gaps = [b - a for a, b in zip(completions, completions[1:])]
    min_service = 2000.0 + 40.0
    assert all(g >= min_service * 0.99 for g in gaps)


def test_sstf_order_within_batch(sim):
    disk = Disk(sim, _quiet_params(seek_base_us=100.0))
    far = _read(500 * GB)
    near = _read(1 * GB)
    order = []
    far.add_callback(lambda r: order.append("far"))
    near.add_callback(lambda r: order.append("near"))
    # Occupy the head first so both wait in the same batch.
    blocker = _read(0)
    disk.submit(blocker)
    disk.submit(far)
    disk.submit(near)
    sim.run()
    assert order == ["near", "far"]


def test_batching_bounds_overtaking(sim):
    """A later arrival cannot jump into the in-flight batch."""
    disk = Disk(sim, _quiet_params())
    order = []
    a = _read(900 * GB)  # same far offset: SSTF would pick the late one
    a.add_callback(lambda r: order.append("early"))
    blocker = _read(0)
    disk.submit(blocker)
    disk.submit(a)  # queued; becomes the next frozen batch

    def inject_late():
        late = _read(900 * GB)
        late.add_callback(lambda r: order.append("late"))
        disk.submit(late)

    # Wait until the batch containing `a` is being served, then inject a
    # same-offset IO: it must land in the NEXT batch.
    sim.schedule(disk.model_service_time(0, blocker) + 1.0, inject_late)
    sim.run()
    assert order == ["early", "late"]


def test_queue_depth_enforced(sim):
    disk = Disk(sim, _quiet_params(queue_depth=2))
    disk.submit(_read(0))
    disk.submit(_read(1 * GB))
    assert not disk.has_room()
    with pytest.raises(RuntimeError):
        disk.submit(_read(2 * GB))


def test_cancelled_request_is_skipped(sim):
    disk = Disk(sim, _quiet_params())
    blocker = _read(0)
    victim = _read(1 * GB)
    victim.cancelled = True
    survivor = _read(2 * GB)
    done = []
    survivor.add_callback(lambda r: done.append("s"))
    victim.add_callback(lambda r: done.append("v"))
    disk.submit(blocker)
    disk.submit(victim)
    disk.submit(survivor)
    sim.run()
    assert done == ["s"]
    assert disk.completed == 2


def test_head_position_tracks_completions(sim):
    disk = Disk(sim, _quiet_params())
    req = _read(10 * GB, 64 * KB)
    submit_and_run(sim, disk, [req])
    assert disk.head_offset == req.end_offset


def test_drain_callback_fires_per_completion(sim):
    disk = Disk(sim, _quiet_params())
    drains = []
    disk.add_drain_callback(lambda: drains.append(sim.now))
    submit_and_run(sim, disk, [_read(0), _read(1 * GB)])
    assert len(drains) == 2


def test_pending_requests_snapshot(sim):
    disk = Disk(sim, _quiet_params())
    reqs = [_read(i * GB) for i in range(3)]
    for req in reqs:
        disk.submit(req)
    assert set(disk.pending_requests()) == set(reqs)
    assert disk.in_device == 3


def test_hiccups_add_tail(sim):
    params = DiskParams(jitter_frac=0.0, hiccup_prob=1.0,
                        hiccup_range_us=(5 * MS, 5 * MS))
    disk = Disk(sim, params)
    req = _read(0)
    submit_and_run(sim, disk, [req])
    base = disk.model_service_time(0, _read(0))
    assert req.latency >= base + 5 * MS - 1.0


def test_random_4k_reads_land_in_paper_band():
    """Mean random-read latency should be the 6-10 ms the paper expects."""
    from repro.sim import Simulator
    sim = Simulator(seed=5)
    disk = Disk(sim)
    rng = sim.rng("offsets")
    latencies = []

    def loop():
        for _ in range(200):
            req = _read(rng.randrange(0, 999 * GB))
            req.submit_time = sim.now
            done = sim.event()
            req.add_callback(done.succeed)
            disk.submit(req)
            yield done
            latencies.append(req.latency)

    sim.process(loop())
    sim.run()
    mean_ms = sum(latencies) / len(latencies) / MS
    assert 4.0 < mean_ms < 10.0

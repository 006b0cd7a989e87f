"""Tests of the noop scheduler + base scheduler plumbing."""

from repro._units import GB, KB
from repro.devices import BlockRequest, Disk, DiskParams, IoOp
from repro.kernel import NoopScheduler


def _quiet_disk(sim, depth=2):
    return Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0,
                                queue_depth=depth))


def _read(offset):
    return BlockRequest(IoOp.READ, offset, 4 * KB)


def test_fifo_dispatch_order(sim):
    disk = _quiet_disk(sim, depth=1)
    sched = NoopScheduler(sim, disk)
    order = []
    for i, offset in enumerate((5 * GB, 1 * GB, 3 * GB)):
        req = _read(offset)
        req.add_callback(lambda r, i=i: order.append(i))
        sched.submit(req)
    sim.run()
    assert order == [0, 1, 2]  # FIFO despite SSTF-friendlier orders


def test_dispatch_respects_device_room(sim):
    disk = _quiet_disk(sim, depth=2)
    sched = NoopScheduler(sim, disk)
    reqs = [_read(i * GB) for i in range(5)]
    for req in reqs:
        sched.submit(req)
    assert disk.in_device == 2
    assert sched.queued == 3
    sim.run()
    assert disk.completed == 5


def test_cancel_queued_request_finishes_it(sim):
    disk = _quiet_disk(sim, depth=1)
    sched = NoopScheduler(sim, disk)
    reqs = [_read(i * GB) for i in range(3)]
    seen = []
    for req in reqs:
        req.add_callback(lambda r: seen.append((r.req_id, r.cancelled)))
        sched.submit(req)
    assert sched.cancel(reqs[2]) is True
    sim.run()
    assert (reqs[2].req_id, True) in seen
    assert disk.completed == 2


def test_cancel_dispatched_request_fails(sim):
    disk = _quiet_disk(sim, depth=2)
    sched = NoopScheduler(sim, disk)
    req = _read(0)
    sched.submit(req)
    assert sched.cancel(req) is False  # already in the device


def test_listeners_fire_in_order(sim):
    disk = _quiet_disk(sim)
    sched = NoopScheduler(sim, disk)
    log = []
    sched.add_submit_listener(lambda r: log.append("submit"))
    sched.add_dispatch_listener(lambda r: log.append("dispatch"))
    sched.add_complete_listener(lambda r: log.append("complete"))
    sched.submit(_read(0))
    sim.run()
    assert log == ["submit", "dispatch", "complete"]


def test_listeners_on_one_edge_run_in_registration_order(sim):
    disk = _quiet_disk(sim)
    sched = NoopScheduler(sim, disk)
    log = []
    sched.add_dispatch_listener(lambda r: log.append("first"))
    sched.add_dispatch_listener(lambda r: log.append("second"))
    sched.submit(_read(0))
    sim.run()
    assert log == ["first", "second"]


def test_queued_requests_excludes_dispatched(sim):
    disk = _quiet_disk(sim, depth=1)
    sched = NoopScheduler(sim, disk)
    reqs = [_read(i * GB) for i in range(3)]
    for req in reqs:
        sched.submit(req)
    assert set(sched.queued_requests()) == set(reqs[1:])


def test_counters(sim):
    disk = _quiet_disk(sim, depth=1)
    sched = NoopScheduler(sim, disk)
    reqs = [_read(i * GB) for i in range(3)]
    for req in reqs:
        sched.submit(req)
    sched.cancel(reqs[2])
    sim.run()
    assert sched.submitted == 3
    assert sched.cancelled == 1

"""Tests of StorageNode request handling."""

from repro._units import GB, KB, MS
from repro.cluster.strategies.tied import TiedCopy
from repro.errors import is_ebusy
from repro.experiments.common import build_disk_cluster, make_strategy
from repro.sim.resources import Semaphore


def test_get_returns_record(sim):
    env = build_disk_cluster(sim, 3)
    node = env.nodes[0]
    ev = sim.process(node.get(5))
    sim.run()
    assert ev.value.key == 5
    assert node.handled == 1


def test_get_with_deadline_can_return_ebusy(sim):
    env = build_disk_cluster(sim, 3)
    node = env.nodes[0]
    for i in range(6):
        sim.process(node.os.read(0, i * GB, 2048 * KB, pid=9))
    ev = sim.process(node.get(5, deadline=5 * MS))
    sim.run()
    assert is_ebusy(ev.value)
    assert node.ebusy_sent == 1


def test_cpu_slots_serialize_handlers(sim):
    env = build_disk_cluster(sim, 3)
    node = env.nodes[0]
    node.cpu = Semaphore(sim, 1)
    node.handler_cpu_us = 500.0
    events = [sim.process(node.get(k)) for k in range(3)]
    sim.run()
    finish = sorted(ev._value and 1 for ev in events)
    assert all(ev.triggered for ev in events)
    # With 1 CPU and 500us handler time, service start is serialized:
    # total runtime must exceed 3 * 500us.
    assert sim.now >= 1500.0


def test_put_path(sim):
    env = build_disk_cluster(sim, 3)
    node = env.nodes[0]
    ev = sim.process(node.put(5))
    sim.run()
    assert ev.value is True


def _tied_copy(sim, env, node, key):
    """One tied copy of a get (§7.8.2): (reply event, copy)."""
    strategy = make_strategy("tied", env.cluster)
    copy = TiedCopy(sim, node)
    return strategy._attempt(node, key, tie=copy), copy


def test_get_cancellable_began_fires_on_dispatch(sim):
    """A tied copy begins execution when its IO enters the device."""
    env = build_disk_cluster(sim, 3)
    node = env.nodes[0]
    ev, copy = _tied_copy(sim, env, node, 5)
    sim.run_until(copy.began)
    assert copy.reqs[0].dispatch_time == sim.now  # began at dispatch
    assert not ev.triggered
    sim.run()
    assert not is_ebusy(ev.value)


def test_get_cancellable_cancel_before_dispatch(sim):
    """Cancelling a tied copy revokes its IO still in the scheduler."""
    env = build_disk_cluster(sim, 3)
    node = env.nodes[0]
    # Fill device + scheduler so the engine IO queues.
    for i in range(8):
        sim.process(node.os.read(0, i * GB, 2048 * KB, pid=9))
    ev, copy = _tied_copy(sim, env, node, 5)

    def canceller():
        yield 1 * MS  # after the copy's (queued) IO was issued
        assert copy.reqs and copy.reqs[0].dispatch_time is None
        copy.cancel()

    sim.process(canceller())
    sim.run()
    assert is_ebusy(ev.value)  # revoked in the scheduler queue
    assert node.os.scheduler.cancelled == 1


def test_tied_copy_cancelled_before_its_io_exists_submits_none(sim):
    """A cancel that reaches the server before the copy's IO exists keeps
    that IO out of the scheduler: the copy answers EBUSY instead of being
    served."""
    env = build_disk_cluster(sim, 3)
    node = env.nodes[0]
    ev, copy = _tied_copy(sim, env, node, 5)
    copy.cancel()
    sim.run()
    assert is_ebusy(ev.value)
    assert node.os.scheduler.submitted == 0
    assert node.os.ebusy_returned == 1


def test_handler_cpu_time_charged(sim):
    env = build_disk_cluster(sim, 3)
    node = env.nodes[0]
    node.handler_cpu_us = 1000.0
    start = sim.now
    ev = sim.process(node.get(5))
    sim.run()
    assert ev.value.engine_latency is not None
    assert sim.now - start >= 1000.0

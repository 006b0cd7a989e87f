"""Tests of StorageNode request handling."""

from repro._units import GB, KB, MS
from repro.errors import is_ebusy
from repro.experiments.common import build_disk_cluster
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


def test_handler_cpu_time_charged(sim):
    env = build_disk_cluster(sim, 3)
    node = env.nodes[0]
    node.handler_cpu_us = 1000.0
    start = sim.now
    ev = sim.process(node.get(5))
    sim.run()
    assert ev.value.engine_latency is not None
    assert sim.now - start >= 1000.0

"""Tests of the noise injector."""

import pytest

from repro._units import GB, KB, MS, SEC
from repro.experiments.common import build_cache_cluster, build_disk_cluster
from repro.workloads.noise import rotating_contention


def _probe_latency(sim, node, offset=500 * GB):
    done = {}

    def gen():
        start = sim.now
        yield from node.os.read(0, offset, 4 * KB, pid=1)
        done["latency"] = sim.now - start

    proc = sim.process(gen())
    sim.run_until(proc)
    return done["latency"]


def test_busy_window_slows_the_disk(sim):
    env = build_disk_cluster(sim, 1, replication=1)
    node = env.nodes[0]
    baseline = _probe_latency(sim, node)
    env.injectors[0].busy_window(1 * SEC, concurrency=4)
    sim.run(until=sim.now + 100 * MS)  # let the window build a queue
    busy = _probe_latency(sim, node)
    assert busy > 2 * baseline


def test_disk_read_threads_run_until_deadline(sim):
    env = build_disk_cluster(sim, 1, replication=1)
    injector = env.injectors[0]
    injector.disk_read_threads(n_threads=2, until_us=200 * MS,
                               gap_us=1 * MS)
    sim.run()
    assert injector.injected_ios > 10
    assert sim.now < 300 * MS


def test_ssd_write_threads(sim):
    from repro.experiments.common import build_ssd_cluster
    env = build_ssd_cluster(sim, 1, replication=1)
    injector = env.injectors[0]
    injector.ssd_write_threads(n_threads=1, until_us=50 * MS)
    sim.run()
    assert injector.injected_ios > 5


def test_ssd_erase_noise_parks_chips(sim):
    from repro.experiments.common import build_ssd_cluster
    env = build_ssd_cluster(sim, 1, replication=1)
    injector = env.injectors[0]
    injector.ssd_erase_noise(rate_per_sec=1000, until_us=100 * MS)
    sim.run()
    assert injector.injected_ios > 50


def test_cache_eviction_noise(sim):
    env = build_cache_cluster(sim, 1, n_keys=500, replication=1)
    injector = env.injectors[0]
    before = env.nodes[0].os.cache.used_pages
    evicted = injector.evict_cache_fraction(0.2)
    assert evicted == pytest.approx(before * 0.2, abs=1)


def test_eviction_requires_cache(sim):
    env = build_disk_cluster(sim, 1, replication=1)
    with pytest.raises(RuntimeError):
        env.injectors[0].evict_cache_fraction(0.2)


def test_run_schedule_validates_style(sim):
    env = build_disk_cluster(sim, 1, replication=1)
    with pytest.raises(ValueError):
        env.injectors[0].run_schedule([], style="tape")


def test_run_schedule_replays_at_times(sim):
    env = build_disk_cluster(sim, 1, replication=1)
    injector = env.injectors[0]
    injector.run_schedule([(100 * MS, 50 * MS, 2),
                           (500 * MS, 50 * MS, 2)])
    sim.run()
    assert injector.injected_ios >= 4
    assert sim.now >= 500 * MS


def test_rotating_contention_visits_all_nodes(sim):
    env = build_disk_cluster(sim, 3, replication=3)
    rotating_contention(sim, env.injectors, 100 * MS, 650 * MS,
                        concurrency=2)
    sim.run()
    assert all(inj.injected_ios > 0 for inj in env.injectors)

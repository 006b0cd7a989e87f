"""Tests of the client-side tail-tolerance strategies."""

import hashlib
import struct

import pytest

from repro._units import MS, SEC
from repro.cluster import Cluster, Network
from repro.cluster.strategies import STRATEGIES, MittosStrategy
from repro.errors import EIO, EBusy, is_ebusy
from repro.experiments.common import (build_cache_cluster,
                                      build_disk_cluster, make_strategy,
                                      run_clients)
from repro.sim import Simulator
from repro.sim.core import _COMPACT_FLOOR


def _noisy_primary(env, key):
    """Make the key's primary node severely busy."""
    primary = env.cluster.replicas_for(key)[0]
    injector = env.injectors[primary.node_id]
    injector.busy_window(3 * SEC, concurrency=5)
    return primary


def _get(sim, strategy, key):
    ev = strategy.get(key)
    sim.run_until(ev, limit=60 * SEC)
    return ev


def test_registry_contains_all_eight():
    assert set(STRATEGIES) == {"base", "appto", "clone", "hedged", "snitch",
                               "c3", "mittos", "adaptive"}


def test_base_waits_out_the_noise(sim):
    env = build_disk_cluster(sim, 6)
    _noisy_primary(env, 1)
    strategy = make_strategy("base", env.cluster)
    start = sim.now
    ev = _get(sim, strategy, 1)
    assert ev.value is not EIO
    assert sim.now - start > 20 * MS  # stalled behind the busy disk


def test_base_times_out_with_error(sim):
    env = build_disk_cluster(sim, 6)
    _noisy_primary(env, 1)
    strategy = make_strategy("base", env.cluster)
    strategy.timeout_us = 15 * MS
    ev = _get(sim, strategy, 1)
    assert ev.value is EIO
    assert strategy.timeouts == 1


def test_appto_retries_to_another_replica(sim):
    env = build_disk_cluster(sim, 6)
    _noisy_primary(env, 1)
    strategy = make_strategy("appto", env.cluster, deadline_us=15 * MS)
    start = sim.now
    ev = _get(sim, strategy, 1)
    assert ev.value is not EIO
    assert strategy.retries >= 1
    # latency ~ timeout + clean read, far below the noise duration
    assert sim.now - start < 60 * MS


def test_clone_takes_faster_replica(sim):
    env = build_disk_cluster(sim, 6)
    _noisy_primary(env, 1)
    strategy = make_strategy("clone", env.cluster)
    start = sim.now
    ev = _get(sim, strategy, 1)
    assert ev.value is not EIO
    assert strategy.duplicates == 1


def test_hedged_duplicates_only_after_delay(sim):
    env = build_disk_cluster(sim, 6)
    strategy = make_strategy("hedged", env.cluster, deadline_us=50 * MS)
    ev = _get(sim, strategy, 1)  # quiet cluster: no hedge needed
    assert strategy.duplicates == 0
    _noisy_primary(env, 2)
    ev = _get(sim, strategy, 2)
    assert strategy.duplicates == 1
    assert ev.value is not EIO


def test_mittos_instant_failover(sim):
    env = build_disk_cluster(sim, 6)
    _noisy_primary(env, 1)
    strategy = make_strategy("mittos", env.cluster, deadline_us=15 * MS)
    start = sim.now
    ev = _get(sim, strategy, 1)
    assert not is_ebusy(ev.value) and ev.value is not EIO
    assert strategy.failovers >= 1
    # No waiting: roughly one extra hop + a clean read.
    assert sim.now - start < 25 * MS


def test_mittos_third_try_disables_deadline(sim):
    env = build_disk_cluster(sim, 3)  # all three replicas = all nodes
    for injector in env.injectors:
        injector.busy_window(3 * SEC, concurrency=5)
    strategy = make_strategy("mittos", env.cluster, deadline_us=10 * MS)
    ev = _get(sim, strategy, 1)
    assert not is_ebusy(ev.value) and ev.value is not EIO
    assert strategy.all_busy == 1


def test_mittos_wait_hint_picks_least_busy(sim):
    env = build_disk_cluster(sim, 3)
    for injector in env.injectors:
        injector.busy_window(3 * SEC, concurrency=5)
    strategy = make_strategy("mittos", env.cluster, deadline_us=10 * MS,
                             use_wait_hint=True)
    ev = _get(sim, strategy, 1)
    assert not is_ebusy(ev.value) and ev.value is not EIO
    assert strategy.all_busy == 1


@pytest.mark.parametrize("name, per_get", [("mittos", 1), ("base", 2)])
def test_processes_per_get_on_a_fault_free_line(sim, name, per_get):
    """A sequential read runs in its op's one process, down through node,
    engine and OS; Base races its attempt against the coarse timeout,
    which needs an event and so a second process.  Plus one per client."""
    env = build_disk_cluster(sim, 6)
    strategy = make_strategy(name, env.cluster, deadline_us=10 * MS)
    built = []
    spawn = sim.process
    sim.process = lambda gen: built.append(gen) or spawn(gen)
    recorder = run_clients(env, strategy, n_clients=3, n_ops=40)
    assert len(recorder) == 120
    assert len(built) == 3 + 120 * per_get


def test_snitch_learns_to_avoid_stable_noise(sim):
    env = build_disk_cluster(sim, 3)
    env.injectors[0].busy_window(30 * SEC, concurrency=5)
    strategy = make_strategy("snitch", env.cluster)

    def client():
        for k in range(60):
            yield strategy.get(k)

    proc = sim.process(client())
    sim.run_until(proc, limit=40 * SEC)
    # After learning, requests whose primary is node 0 get redirected:
    ewma = strategy._ewma
    assert ewma  # it observed latencies
    busy_score = ewma.get(0)
    other = [v for nid, v in ewma.items() if nid != 0]
    assert busy_score is None or not other or busy_score >= min(other)


def test_c3_uses_queue_feedback(sim):
    env = build_disk_cluster(sim, 3)
    env.injectors[0].busy_window(30 * SEC, concurrency=5)
    strategy = make_strategy("c3", env.cluster)

    def client():
        for k in range(60):
            yield strategy.get(k)

    proc = sim.process(client())
    sim.run_until(proc, limit=40 * SEC)
    assert strategy._queue  # queue estimates were collected


def test_replication_below_one_is_rejected(sim):
    with pytest.raises(ValueError):
        Cluster(sim, [], Network(sim), replication=0)


def test_race_timer_is_cancelled_when_the_event_wins(sim):
    """Regression: the loser's timeout used to stay live in the heap, so a
    quiet get with base's 30 s timeout left a 30 s timer behind."""
    env = build_disk_cluster(sim, 6)
    strategy = make_strategy("base", env.cluster)  # default 30 s timeout
    ev = _get(sim, strategy, 1)
    assert ev.value is not EIO
    pending = [time for time, _tie, _seq, fn, _args in sim._heap
               if fn is not None]
    assert all(t < 1 * SEC for t in pending), pending


def test_base_cache_line_with_cancelled_race_timers_is_pinned():
    """Golden: Base on a 6-node cache cluster, 4 clients x 300 ops.  Each
    get's 30 s Race timer is cancelled when the get wins, so the line
    cancels 1,200 timers.  How the kernel stores cancelled timers must not
    move a sample or the final clock, and compaction keeps them from
    piling up in the heap."""
    sim = Simulator(seed=7)
    env = build_cache_cluster(sim, 6, n_keys=3_000)
    strategy = make_strategy("base", env.cluster)
    samples = run_clients(env, strategy, 4, 300).samples
    assert len(samples) == 1200
    digest = hashlib.sha256(struct.pack(f"<{len(samples)}d", *samples))
    assert digest.hexdigest() == \
        "3ae3878438dcc12c9f6dba49748d5d66fe11f1c68357cd01af2c9040e691f1ff"
    assert sim.now == 803632.3826627205
    assert len(sim._heap) <= _COMPACT_FLOOR


def test_ebusy_response_carries_predicted_wait(sim):
    """Satellite of §8.1: the wait hint rides the EBUSY response itself."""
    env = build_disk_cluster(sim, 3)
    primary = _noisy_primary(env, 1)
    ev = sim.process(primary.get(1, deadline=5 * MS))
    sim.run_until(ev, limit=1 * SEC)
    assert is_ebusy(ev.value)
    assert ev.value.predicted_wait is not None
    assert ev.value.predicted_wait > 5 * MS  # the reject reason, per request


# -- wait-hint interleaving (the old shared-hint race) -----------------------

class _ScriptedNode:
    """A replica answering deadline gets from a fixed per-arrival script."""

    def __init__(self, sim, node_id, script):
        self.sim = sim
        self.node_id = node_id
        self.script = list(script)  # (delay_us, result) in arrival order
        self.final_gets = 0        # deadline-None gets routed here
        self.up = True
        self.epoch = 0

    def get(self, key, deadline=None, priority=None):
        if deadline is None:
            self.final_gets += 1
            yield 200.0
            return ("data", self.node_id)
        delay, result = self.script.pop(0)
        yield delay
        return result


class _ScriptedCluster:
    """Minimal cluster: every key lives on all nodes, in order."""

    def __init__(self, sim, nodes):
        self.sim = sim
        self.nodes = nodes
        self.network = Network(sim, hop_us=50.0, jitter_us=0.0)
        self.health = None
        self.default_rpc_timeout_us = None
        self.default_op_budget_us = None
        self.default_max_attempts = None

    def replicas_for(self, key):
        return list(self.nodes)


def test_wait_hints_are_per_request_under_interleaving(sim):
    """Two clients interleave their EBUSY failover rounds; each must route
    its last try by its *own* hints.  A hint shared through the predictor
    would let client A read whatever value client B's rejection stored
    last."""
    busy = 100 * MS
    idle = 5 * MS
    # Arrival order per node is client A then client B (A starts first and
    # both follow the same fixed-latency sequence).
    nodes = [
        _ScriptedNode(sim, 0, [(200.0, EBusy(busy)), (200.0, EBusy(idle))]),
        _ScriptedNode(sim, 1, [(200.0, EBusy(idle)), (200.0, EBusy(busy))]),
        _ScriptedNode(sim, 2, [(200.0, EBusy(busy)), (200.0, EBusy(busy))]),
    ]
    cluster = _ScriptedCluster(sim, nodes)
    strategy = MittosStrategy(cluster, deadline_us=10 * MS,
                              use_wait_hint=True)

    def client(offset_us):
        yield offset_us
        result = yield strategy.get(1)
        return result

    proc_a = sim.process(client(0.0))
    proc_b = sim.process(client(100.0))
    sim.run_until(sim.all_of([proc_a, proc_b]), limit=1 * SEC)
    # A's hints say node 1 is least busy; B's say node 0.
    assert proc_a.value == ("data", 1)
    assert proc_b.value == ("data", 0)
    assert nodes[0].final_gets == 1
    assert nodes[1].final_gets == 1
    assert nodes[2].final_gets == 0
    assert strategy.all_busy == 2

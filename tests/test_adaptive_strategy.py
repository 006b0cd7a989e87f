"""Tests of the ninth strategy: mittos under SLO feedback control."""

import pytest

from repro._units import MS, SEC
from repro.cluster.strategies import STRATEGIES, AdaptiveStrategy
from repro.errors import EIO, is_ebusy
from repro.experiments.common import build_disk_cluster, make_strategy
from repro.slo_control import SloController


def test_adaptive_is_the_ninth_registered_strategy():
    assert STRATEGIES["adaptive"] is AdaptiveStrategy
    assert AdaptiveStrategy.name == "adaptive"


def test_factory_builds_a_default_controller(sim):
    env = build_disk_cluster(sim, 3)
    strategy = make_strategy("adaptive", env.cluster, deadline_us=20 * MS)
    ctrl = strategy.controller
    assert isinstance(ctrl, SloController)
    assert ctrl.baseline_deadline_us == 20 * MS
    assert strategy.effective_deadline_us == 20 * MS


def test_controller_knobs_pass_through_the_factory(sim):
    env = build_disk_cluster(sim, 3)
    strategy = make_strategy("adaptive", env.cluster, deadline_us=20 * MS,
                             floor_us=2 * MS, ceiling_us=100 * MS,
                             dwell_windows=3)
    assert strategy.controller.floor_us == 2 * MS
    assert strategy.controller.ceiling_us == 100 * MS
    assert strategy.controller.dwell_windows == 3


def test_knobs_and_explicit_controller_are_mutually_exclusive(sim):
    env = build_disk_cluster(sim, 3)
    ctrl = SloController(sim, 20 * MS)
    with pytest.raises(ValueError):
        AdaptiveStrategy(env.cluster, 20 * MS, controller=ctrl,
                         floor_us=2 * MS)


def test_ops_feed_the_controller_window(sim):
    env = build_disk_cluster(sim, 3)
    strategy = make_strategy("adaptive", env.cluster, deadline_us=40 * MS)
    events = [strategy.get(k) for k in (1, 2, 3)]
    sim.run()
    assert all(not is_ebusy(ev.value) and ev.value is not EIO
               for ev in events)
    # Each completed get pushed its end-to-end latency into the window.
    assert len(strategy.controller._lat) == 3
    assert all(lat > 0 for lat in strategy.controller._lat)


def test_effective_deadline_follows_the_controller(sim):
    env = build_disk_cluster(sim, 3)
    strategy = make_strategy("adaptive", env.cluster, deadline_us=20 * MS)
    ctrl = strategy.controller
    for _ in range(20):
        ctrl.observe_op(2 * ctrl.target_p95_us)  # every op blows the tail
    ctrl.on_window(sim.now)
    assert ctrl.transitions[-1][1] == "tighten"
    assert strategy.effective_deadline_us == ctrl.deadline_us
    assert strategy.effective_deadline_us == pytest.approx(20 * MS / ctrl.step)


def test_guard_nodes_installs_one_guard_per_replica(sim):
    env = build_disk_cluster(sim, 4)
    strategy = make_strategy("adaptive", env.cluster, deadline_us=20 * MS)
    guards = strategy.guard_nodes(qdepth_limit=16)
    assert len(guards) == 4
    assert [g.node_id for g in guards] == [n.node_id for n in env.nodes]
    assert all(n.os.admission is g for n, g in zip(env.nodes, guards))
    assert strategy.controller.guards == guards
    strategy.controller._set_level(2)
    assert all(g.level == 2 for g in guards)


def test_arm_drives_windows_on_sim_time(sim):
    env = build_disk_cluster(sim, 3)
    strategy = make_strategy("adaptive", env.cluster, deadline_us=40 * MS,
                             window_us=100 * MS)
    ticks = strategy.arm(1 * SEC)
    assert ticks == 10
    for k in range(5):
        strategy.get(k)
    sim.run()
    assert strategy.controller.windows == 10
    assert strategy.controller._lat == []  # folded into closed windows


def test_adaptive_inherits_mittos_failover(sim):
    # A busy primary: the adaptive line must keep mittos's EBUSY-driven
    # failover behaviour (it composes, not replaces).
    env = build_disk_cluster(sim, 6)
    primary = env.cluster.replicas_for(7)[0]
    env.injectors[primary.node_id].busy_window(3 * SEC, concurrency=5)
    strategy = make_strategy("adaptive", env.cluster, deadline_us=15 * MS)
    ev = strategy.get(7)
    sim.run()
    assert not is_ebusy(ev.value)
    assert ev.value is not EIO

"""Tests of per-node admission backpressure (tiered shedding)."""

import pytest

from repro._units import MS
from repro.devices.request import IoClass
from repro.errors import is_ebusy
from repro.experiments.common import build_disk_cluster, make_strategy
from repro.slo_control import SHEDDABLE_TIER, AdmissionGuard, work_tier


def test_work_tier_mapping():
    assert work_tier(IoClass.RT, 0) == 0
    assert work_tier(IoClass.RT, 7) == 0   # RT outranks its priority field
    assert work_tier(IoClass.IDLE, 0) == 8
    assert work_tier(IoClass.BE, 4) == 4
    assert work_tier(IoClass.BE, 7) == 7
    assert work_tier(IoClass.BE, 99) == 7  # clamped into the CFQ range


def test_levels_shed_lowest_tier_first(sim):
    guard = AdmissionGuard(sim, node_id=0, max_level=4)
    assert guard.admit(1, IoClass.IDLE, 0)       # level 0: nothing shed
    guard.set_level(1)
    assert not guard.admit(1, IoClass.IDLE, 0)   # tier 8 goes first
    assert guard.admit(1, IoClass.BE, 7)
    guard.set_level(4)
    assert not guard.admit(1, IoClass.BE, 7)
    assert not guard.admit(1, IoClass.BE, 5)
    assert guard.admit(1, IoClass.BE, 4)         # serving tier survives
    assert guard.admit(1, IoClass.RT, 0)         # RT is never shed
    assert guard.admitted == 4
    assert guard.shed == 3


def test_level_clamped_to_max_level(sim):
    guard = AdmissionGuard(sim, node_id=0, max_level=2)
    guard.set_level(99)
    assert guard.level == 2
    assert guard.admit(1, IoClass.BE, 6)         # tier 6 < threshold 7
    assert not guard.admit(1, IoClass.BE, 7)
    guard.set_level(-3)
    assert guard.level == 0


class _FakeSched:
    def __init__(self, queued):
        self.queued = queued


class _FakeOs:
    def __init__(self, queued):
        self.scheduler = _FakeSched(queued)
        self.admission = None


def test_qdepth_limit_sheds_sheddable_tiers_only(sim):
    guard = AdmissionGuard(sim, node_id=0, qdepth_limit=8)
    guard.attach(_FakeOs(queued=9))
    assert guard.queue_depth() == 9
    assert not guard.admit(1, IoClass.IDLE, 0)            # tier 8
    assert not guard.admit(1, IoClass.BE, SHEDDABLE_TIER)  # tier 5
    assert guard.admit(1, IoClass.BE, 4)   # foreground rides it out
    assert guard.admit(1, IoClass.RT, 0)
    guard._os.scheduler.queued = 3         # queue drained
    assert guard.admit(1, IoClass.IDLE, 0)


def test_shed_read_returns_ebusy_on_the_os_path(sim):
    env = build_disk_cluster(sim, 3)
    node = env.nodes[0]
    guard = AdmissionGuard(sim, node.node_id).attach(node.os)
    assert node.os.admission is guard
    guard.set_level(2)  # sheds tiers >= 7
    shed_ev = sim.process(node.get(3, deadline=20 * MS, priority=7))
    kept_ev = sim.process(node.get(4, deadline=20 * MS, priority=4))
    sim.run()
    assert is_ebusy(shed_ev.value)
    assert not is_ebusy(kept_ev.value)
    assert guard.shed == 1
    assert guard.admitted == 1
    assert node.os.ebusy_returned >= 1  # shed counts as a fast reject


def test_low_tier_strategy_reads_are_shed_cluster_wide(sim):
    env = build_disk_cluster(sim, 3)
    guards = []
    for node in env.nodes:
        guard = AdmissionGuard(sim, node.node_id).attach(node.os)
        guard.set_level(2)
        guards.append(guard)
    scavenger = make_strategy("base", env.cluster, tier_priority=7)
    ev = scavenger.get(11)
    sim.run()
    # Base has no EBUSY failover: the shed comes back as the op result.
    assert is_ebusy(ev.value)
    assert sum(g.shed for g in guards) == 1


def test_default_priority_reads_unaffected_by_unlevelled_guard(sim):
    env = build_disk_cluster(sim, 3)
    for node in env.nodes:
        AdmissionGuard(sim, node.node_id).attach(node.os)
    strategy = make_strategy("mittos", env.cluster, deadline_us=40 * MS)
    ev = strategy.get(5)
    sim.run()
    assert not is_ebusy(ev.value)
    assert ev.value is not None

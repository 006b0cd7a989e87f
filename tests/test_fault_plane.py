"""Tests of the fault plane: spec validation, determinism, injection."""

import pytest

from repro._units import MS, SEC
from repro.analysis.check import check
from repro.errors import EIO
from repro.experiments import faultsweep
from repro.experiments.common import build_disk_cluster, make_strategy
from repro.faults import (CrashWindow, FailSlow, FaultPlane, FaultSpec,
                          MessageLoss, Partition, ReadErrors)
from repro.metrics import AvailabilityStats
from repro.sim import Simulator


# -- spec validation ---------------------------------------------------------

@pytest.mark.parametrize("spec", [
    FaultSpec(message_loss=(MessageLoss(rate=1.5),)),
    FaultSpec(read_errors=(ReadErrors(rate=-0.1),)),
    FaultSpec(false_negative_rate=2.0),
    FaultSpec(crashes=(CrashWindow(node=0, start_us=-1.0),)),
    FaultSpec(fail_slow=(FailSlow(node=0, start_us=0.0, duration_us=-5.0),)),
    FaultSpec(rpc_timeout_us=0.0),
])
def test_spec_validation_rejects_bad_values(spec):
    with pytest.raises(ValueError):
        spec.validate()


def test_empty_spec_is_valid_and_plane_armable(sim):
    env = build_disk_cluster(sim, 3)
    plane = FaultPlane(sim).arm(env.cluster)
    assert not plane.drop_message(-1, 0)
    assert not plane.read_error(0)


# -- determinism -------------------------------------------------------------

SPEC = FaultSpec(
    crashes=(CrashWindow(node=0, start_us=10 * MS, duration_us=20 * MS),),
    fail_slow=(FailSlow(node=1, start_us=5 * MS, duration_us=30 * MS,
                        cpu_factor=4.0, device_factor=3.0),),
    message_loss=(MessageLoss(rate=0.3),),
    read_errors=(ReadErrors(rate=0.1),),
    false_positive_rate=0.1,
    rpc_timeout_us=40 * MS,
    op_budget_us=500 * MS,
    max_attempts=4,
)


def _run_faulted_workload(seed):
    """A small faulted mittos run; returns the plane's injection counters."""
    sim = Simulator(seed=seed)
    plane = FaultPlane(sim, SPEC)
    env = build_disk_cluster(sim, 4,
                             fault_injector=plane.decision_injector)
    plane.arm(env.cluster)
    strategy = make_strategy("mittos", env.cluster, deadline_us=20 * MS)

    def client(offset_us):
        yield offset_us
        for key in range(10):
            yield strategy.get(key)

    procs = [sim.process(client(i * 500.0)) for i in range(2)]
    sim.run_until(sim.all_of(procs), limit=60 * SEC)
    return plane.counters()


def test_same_seed_same_injection_counters():
    first = _run_faulted_workload(seed=5)
    second = _run_faulted_workload(seed=5)
    assert first == second
    assert first["dropped_messages"] > 0  # faults actually fired


def test_faulted_scenario_replays_byte_identically():
    report = check(faultsweep.race_scenario, seed=11, perturbations=0)
    assert report.ok, report.render()


# -- scheduled transitions ---------------------------------------------------

def test_crash_window_downs_then_restarts_the_node(sim):
    env = build_disk_cluster(sim, 3)
    spec = FaultSpec(crashes=(CrashWindow(node=0, start_us=10 * MS,
                                          duration_us=20 * MS),))
    FaultPlane(sim, spec).arm(env.cluster)
    node = env.nodes[0]
    sim.run(until=15 * MS)
    assert not node.up and node.crashes == 1 and node.epoch == 1
    sim.run(until=40 * MS)
    assert node.up and node.epoch == 1  # restart keeps the bumped epoch


def test_fail_slow_sets_and_clears_the_factors(sim):
    env = build_disk_cluster(sim, 3)
    spec = FaultSpec(fail_slow=(FailSlow(node=1, start_us=0.0,
                                         duration_us=10 * MS,
                                         cpu_factor=4.0,
                                         device_factor=3.0),))
    FaultPlane(sim, spec).arm(env.cluster)
    node = env.nodes[1]
    sim.run(until=5 * MS)
    assert node.cpu_slow_factor == 4.0
    assert node.os.device.latency_scale == 3.0
    sim.run(until=20 * MS)
    assert node.cpu_slow_factor == 1.0
    assert node.os.device.latency_scale == 1.0


def test_arm_installs_client_resilience_defaults(sim):
    env = build_disk_cluster(sim, 3)
    FaultPlane(sim, SPEC).arm(env.cluster)
    cluster = env.cluster
    assert cluster.default_rpc_timeout_us == SPEC.rpc_timeout_us
    assert cluster.default_op_budget_us == SPEC.op_budget_us
    assert cluster.default_max_attempts == SPEC.max_attempts
    assert cluster.health is not None


# -- probabilistic members ---------------------------------------------------

def test_partition_drops_both_directions_only_for_the_pair(sim):
    env = build_disk_cluster(sim, 3)
    spec = FaultSpec(partitions=(Partition(a=-1, b=0, start_us=0.0),))
    plane = FaultPlane(sim, spec).arm(env.cluster)
    assert plane.drop_message(-1, 0)
    assert plane.drop_message(0, -1)
    assert not plane.drop_message(-1, 1)
    assert plane.dropped_messages == 2


def test_message_loss_src_filter_is_directional(sim):
    env = build_disk_cluster(sim, 3)
    spec = FaultSpec(message_loss=(MessageLoss(rate=1.0, src=-1),))
    plane = FaultPlane(sim, spec).arm(env.cluster)
    assert plane.drop_message(-1, 2)      # client -> node matches src
    assert not plane.drop_message(2, -1)  # replies still flow


def test_message_loss_window_expires(sim):
    env = build_disk_cluster(sim, 3)
    spec = FaultSpec(message_loss=(MessageLoss(rate=1.0, start_us=0.0,
                                               duration_us=10 * MS),))
    plane = FaultPlane(sim, spec).arm(env.cluster)
    assert plane.drop_message(-1, 0)
    sim.run(until=20 * MS)
    assert not plane.drop_message(-1, 0)


def test_latent_read_error_surfaces_as_eio(sim):
    env = build_disk_cluster(sim, 3)
    spec = FaultSpec(read_errors=(ReadErrors(rate=1.0, node=0),))
    FaultPlane(sim, spec).arm(env.cluster)
    node = env.nodes[0]
    ev = sim.process(node.get(1))
    sim.run_until(ev, limit=1 * SEC)
    assert ev.value is EIO
    assert node.read_errors == 1
    other = sim.process(env.nodes[1].get(1))  # the rule is scoped to node 0
    sim.run_until(other, limit=1 * SEC)
    assert other.value is not EIO


# -- availability accounting -------------------------------------------------

def test_availability_stats_math():
    stats = AvailabilityStats("line")
    assert stats.availability == 1.0  # idle line counts as available
    for success in (True, True, True, False):
        stats.record(success)
    assert stats.total == 4
    assert stats.availability == 0.75
    assert stats.error_rate == 0.25


def test_availability_stats_from_recorder():
    from repro.metrics import LatencyRecorder
    rec = LatencyRecorder("line")
    for latency in (100.0, 200.0, 300.0):
        rec.add(latency)
    rec.count("eio", 1)
    stats = AvailabilityStats.from_recorder(rec)
    assert stats.ok == 2 and stats.errors == 1
    assert stats.availability == pytest.approx(2 / 3)

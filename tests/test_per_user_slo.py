"""Integration: per-user SLOs drive per-user failover behaviour (§5).

The paper's first MongoDB modification: "MongoDB can create one deadline
for every user, which can be modified anytime."  Two users share the same
cluster; the latency-critical one carries a tight deadline and fails over,
the batch user carries none and just waits.
"""

from repro._units import MS, SEC
from repro.experiments.common import build_disk_cluster, make_strategy


def test_two_users_one_cluster_different_behaviour(sim):
    env = build_disk_cluster(sim, 6)
    env.cluster.primary_fn = lambda key: 0
    env.injectors[0].busy_window(5 * SEC, concurrency=5)

    # "batch" has no SLO: no deadline, so never an EBUSY.
    deadlines = {"interactive": 15 * MS, "batch": None}

    strategies = {
        user: make_strategy("mittos", env.cluster, deadline_us=deadline)
        for user, deadline in deadlines.items()
    }
    latencies = {}

    def client(user):
        start = sim.now
        yield strategies[user].get(1)
        latencies[user] = sim.now - start

    procs = [sim.process(client(u)) for u in ("interactive", "batch")]
    sim.run_until(sim.all_of(procs), limit=60 * SEC)

    assert strategies["interactive"].failovers >= 1
    assert strategies["batch"].failovers == 0
    assert latencies["interactive"] < 25 * MS
    assert latencies["batch"] > 25 * MS  # waited out the contention


def test_slo_update_takes_effect_mid_run(sim):
    """'...which can be modified anytime': tighten the deadline online."""
    env = build_disk_cluster(sim, 6)
    env.cluster.primary_fn = lambda key: 0
    strategy = make_strategy("mittos", env.cluster,
                             deadline_us=500 * MS)  # effectively no limit

    def phase_one():
        yield strategy.get(1)

    proc = sim.process(phase_one())
    sim.run_until(proc, limit=30 * SEC)
    assert strategy.failovers == 0

    # The operator tightens the SLO; the strategy picks it up.
    strategy.deadline_us = 10 * MS
    env.injectors[0].busy_window(5 * SEC, concurrency=5)
    sim.run(until=sim.now + 100 * MS)

    def phase_two():
        yield strategy.get(1)

    proc = sim.process(phase_two())
    sim.run_until(proc, limit=60 * SEC)
    assert strategy.failovers >= 1

"""Figure 13 — MittOS-powered LevelDB + Riak (§7.8.4).

Two-level integration: LevelDB (our LSM engine) issues the SLO-tagged
reads; the EBUSY propagates out of the engine to the Riak-role replicated
coordinator, which fails over.  (a) latency CDF of Riak gets with EC2 disk
noise, Base vs MittCFQ; (b) one node over time: EBUSY is returned exactly
while the outstanding-IO count (noise) is high.
"""

from repro._units import MS, SEC
from repro.cluster import Cluster, Network
from repro.experiments.common import (Env, ExperimentResult, apply_ec2_noise,
                                      build_lsm_node, make_strategy,
                                      percentile_rows)
from repro.sim import Simulator
from repro.workloads import Ec2NoiseModel, NoiseInjector, UniformKeys
from repro.workloads.ycsb import run_ycsb


def _build_env(sim, n_nodes, n_keys):
    keys = range(n_keys)
    nodes = [build_lsm_node(sim, i, keys) for i in range(n_nodes)]
    cluster = Cluster(sim, nodes, Network(sim), replication=3)
    injectors = [NoiseInjector(sim, node.os, 800 << 30,
                               name=f"n{node.node_id}")
                 for node in nodes]

    class _KeyspaceShim:
        def __init__(self, n):
            self.n_keys = n

    return Env(sim, cluster, injectors, _KeyspaceShim(n_keys))


def _run_line(name, deadline_us, params, seed, sample_node=0):
    sim = Simulator(seed=seed)
    env = _build_env(sim, params["n_nodes"], params["n_keys"])
    apply_ec2_noise(env, Ec2NoiseModel("disk"), params["horizon_us"])

    # Timeline sampling of one node (Figure 13b).
    node = env.nodes[sample_node]
    timeline = []

    def sampler():
        last_ebusy = 0
        window_max = 0
        ticks = 0
        while sim.now < params["horizon_us"]:
            outstanding = (node.os.scheduler.queued
                           + node.os.device.in_device)
            window_max = max(window_max, outstanding)
            ticks += 1
            if ticks == 10:  # one 500 ms window of 50 ms probes
                ebusy_now = node.os.ebusy_returned
                timeline.append((sim.now, window_max,
                                 ebusy_now - last_ebusy))
                last_ebusy = ebusy_now
                window_max = 0
                ticks = 0
            yield 50 * MS

    sim.process(sampler())
    strategy = make_strategy(name, env.cluster, deadline_us=deadline_us)
    dists = [UniformKeys(params["n_keys"], sim.rng(f"keys/{i}"))
             for i in range(params["n_clients"])]
    recorder, procs = run_ycsb(sim, strategy, dists,
                               params["n_clients"], params["n_ops"],
                               think_time_us=6 * MS, name=name)
    sim.run_until(sim.all_of(procs), limit=params["horizon_us"])
    return recorder, timeline


def run(quick=True, seed=7):
    params = dict(n_nodes=9, n_keys=6_000,
                  n_clients=9 if quick else 18,
                  n_ops=300 if quick else 1000,
                  horizon_us=(60 if quick else 150) * SEC)

    base, _ = _run_line("base", None, params, seed)
    base.name = "Base"
    deadline = base.p(95) * MS
    mitt, timeline = _run_line("mittos", deadline, params, seed)
    mitt.name = "MittCFQ"

    result = ExperimentResult("fig13", "MittOS-powered Riak + LevelDB")
    headers, rows = percentile_rows([base, mitt],
                                    percentiles=(90, 92, 94, 96, 98))
    result.add_table("Figure 13a: Riak get() latency (ms)", headers, rows)

    busy_rows = [[round(t / SEC, 1), outstanding, ebusy]
                 for t, outstanding, ebusy in timeline
                 if ebusy > 0 or outstanding > 4][:12]
    result.add_table("Figure 13b: node-0 noise vs EBUSY (sampled windows)",
                     ["t_sec", "outstanding_ios", "ebusy_returned"],
                     busy_rows or [[0.0, 0, 0]])
    # EBUSY should be returned when (and only when) outstanding IOs are
    # high: correlate the sampled series.
    high = [e for _, o, e in timeline if o > 4]
    low = [e for _, o, e in timeline if o <= 1]
    result.add_note(f"EBUSY per busy window: "
                    f"{sum(high) / max(1, len(high)):.2f}; per idle window: "
                    f"{sum(low) / max(1, len(low)):.2f}")
    result.add_note(f"deadline = Base p95 = {deadline / MS:.1f} ms")
    result.data["base"] = base
    result.data["mitt"] = mitt
    result.data["timeline"] = timeline
    return result


if __name__ == "__main__":
    print(run().render())

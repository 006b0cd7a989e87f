"""Figure 13 — MittOS-powered LevelDB + Riak (§7.8.4).

Two-level integration: LevelDB (our LSM engine) issues the SLO-tagged
reads; the EBUSY propagates out of the engine to the Riak-role replicated
coordinator, which fails over.  (a) latency CDF of Riak gets with EC2 disk
noise, Base vs MittCFQ; (b) one node over time: EBUSY is returned exactly
while the outstanding-IO count (noise) is high.
"""

from repro._units import MS, SEC
from repro.experiments.common import (ExperimentResult, apply_ec2_noise,
                                      build_lsm_cluster, make_strategy,
                                      percentile_rows, run_clients)
from repro.sim import Simulator
from repro.workloads import Ec2NoiseModel


def _run_line(sim, name, deadline_us, params):
    """One line on ``sim``: Riak gets under EC2 disk noise, with node 0
    sampled every 50 ms (Figure 13b).  Returns (recorder, timeline)."""
    env = build_lsm_cluster(sim, params["n_nodes"], params["n_keys"])
    apply_ec2_noise(env, Ec2NoiseModel("disk"), params["horizon_us"])

    node = env.nodes[0]
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

    # Started before the clients: the order fixes same-time ties.
    sim.process(sampler())
    strategy = make_strategy(name, env.cluster, deadline_us=deadline_us)
    recorder = run_clients(env, strategy, params["n_clients"],
                           params["n_ops"], think_time_us=6 * MS, name=name,
                           limit_us=params["horizon_us"])
    return recorder, timeline


def run(quick=True, seed=7):
    params = dict(n_nodes=9, n_keys=6_000,
                  n_clients=9 if quick else 18,
                  n_ops=300 if quick else 1000,
                  horizon_us=(60 if quick else 150) * SEC)

    base, _ = _run_line(Simulator(seed=seed), "base", None, params)
    base.name = "Base"
    deadline = base.p(95) * MS
    mitt, timeline = _run_line(Simulator(seed=seed), "mittos", deadline,
                               params)
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

"""Figure 12 — snitching / adaptive replica selection vs burstiness (§7.8.3).

"Choose-the-fastest-replica" features react to *past* latency.  The paper
evaluates Cassandra snitching and C3 under rotating contention and shows
they only help when busyness is stable:

* NoBusy — no contention (reference);
* Bursty — EC2-style sub-second noise: rankings lag, tails remain;
* 1B2F-1sec — one busy / two free replicas rotating every second: worse
  (the ranking keeps steering into the newly busy node);
* 1B2F-5sec — rotating every 5 seconds: slow enough to track.

MittOS under the same 1-second rotation is shown for contrast: the EBUSY
check is instantaneous, so rotation speed does not matter.
"""

from repro._units import MS, SEC
from repro.experiments.common import (ExperimentResult, apply_ec2_noise,
                                      build_disk_cluster, make_strategy,
                                      percentile_rows, run_clients)
from repro.sim import Simulator
from repro.workloads import Ec2NoiseModel
from repro.workloads.noise import rotating_contention


def _run_line(sim, strategy_name, condition, deadline_us, params):
    """One strategy line on ``sim`` under one noise condition."""
    env = build_disk_cluster(sim, 3, replication=3)
    horizon = params["horizon_us"]
    if condition == "bursty":
        apply_ec2_noise(env, Ec2NoiseModel("disk", busy_fraction=0.08),
                        horizon)
    elif condition == "1b2f-1s":
        rotating_contention(sim, env.injectors, 1 * SEC, horizon)
    elif condition == "1b2f-5s":
        rotating_contention(sim, env.injectors, 5 * SEC, horizon)
    elif condition != "nobusy":
        raise ValueError(f"unknown condition: {condition}")
    strategy = make_strategy(strategy_name, env.cluster,
                             deadline_us=deadline_us)
    rec = run_clients(env, strategy, params["n_clients"], params["n_ops"],
                      think_time_us=5 * MS,
                      name=f"{strategy_name}/{condition}", limit_us=horizon)
    return rec


def run(quick=True, seed=7):
    params = dict(n_clients=8, n_ops=400 if quick else 1500,
                  horizon_us=(40 if quick else 120) * SEC)
    conditions = ("nobusy", "bursty", "1b2f-1s", "1b2f-5s")

    result = ExperimentResult("fig12", "Snitching / C3 vs bursty noise")
    recs = {}
    for strat in ("c3", "snitch"):
        lines = [_run_line(Simulator(seed=seed), strat, cond, None, params)
                 for cond in conditions]
        headers, rows = percentile_rows(lines,
                                        percentiles=(80, 85, 90, 95, 99))
        result.add_table(f"Figure 12 ({strat}): latency by noise condition "
                         "(ms)", headers, rows)
        recs[strat] = dict(zip(conditions, lines))

    # Contrast: MittOS under the hostile 1-second rotation.
    nobusy = recs["c3"]["nobusy"]
    deadline = nobusy.p(95) * MS
    mitt = _run_line(Simulator(seed=seed), "mittos", "1b2f-1s", deadline,
                     params)
    headers, rows = percentile_rows([mitt],
                                    percentiles=(80, 85, 90, 95, 99))
    result.add_table("Contrast: MittOS under 1B2F-1sec (ms)", headers, rows)
    result.add_note("expected: c3/snitch fine under 1B2F-5sec, poor under "
                    "1B2F-1sec and Bursty; MittOS unaffected by rotation")
    result.data["recs"] = recs
    result.data["mittos_1b2f_1s"] = mitt
    return result


if __name__ == "__main__":
    print(run().render())

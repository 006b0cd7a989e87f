"""Figure 5 — MittCFQ vs hedged/clone/timeout under EC2 disk noise (§7.2).

20-node MongoDB-role cluster, YCSB 1 KB get()s, EC2-shaped noise replayed
on every node.  The deadline/timeout/hedge value is the Base line's p95
latency (the paper's 13 ms rule).  Expected shape:

* Base: long tail (> 40 ms by ~p98) from requests that hit a busy replica;
* AppTO: tail clipped near timeout + a disk read, still > 20 ms above p95;
* Clone: better than Base at the top percentiles, no better (or worse) in
  the body because of its 2x self-inflicted load;
* Hedged: effective above p95, slightly worse than Base around p92-p95;
* MittCFQ: no waiting before failover — the largest reduction, growing
  with percentile (paper: 23%/33%/47% vs Hedged/Clone/AppTO at p95).
"""

from repro._units import MS
from repro.experiments.common import (ExperimentResult, percentile_rows,
                                      run_ec2_disk_line)
from repro.metrics.reduction import latency_reduction
from repro.sim import Simulator

LINES = ("base", "appto", "clone", "hedged", "mittos")


def run(quick=True, seed=7):
    if quick:
        params = dict(n_nodes=20, n_clients=20, n_ops=450,
                      think_time_us=6 * MS, horizon_us=60_000_000.0)
    else:
        params = dict(n_nodes=20, n_clients=30, n_ops=1500,
                      think_time_us=6 * MS, horizon_us=150_000_000.0)

    base_rec, _, _ = run_ec2_disk_line(Simulator(seed=seed), "base",
                                       **params)
    deadline = base_rec.p(95) * MS

    recorders = {"base": base_rec}
    strategies = {}
    for name in LINES[1:]:
        rec, strat, _ = run_ec2_disk_line(Simulator(seed=seed), name,
                                          deadline_us=deadline, **params)
        recorders[name] = rec
        strategies[name] = strat

    result = ExperimentResult("fig5", "MittCFQ vs others with EC2 noise")
    headers, rows = percentile_rows([recorders[n] for n in LINES],
                                    percentiles=(50, 75, 90, 95, 98, 99))
    result.add_table("Figure 5a: YCSB get() latency percentiles (ms)",
                     headers, rows)

    red_rows = []
    for other in ("hedged", "clone", "appto"):
        red = latency_reduction(recorders[other], recorders["mittos"],
                                percentiles=(75, 90, 95, 99))
        red_rows.append([f"vs {other}"] +
                        [round(red[k], 1)
                         for k in ("avg", "p75", "p90", "p95", "p99")])
    result.add_table(
        "Figure 5b: % latency reduction of MittCFQ",
        ["comparison", "avg", "p75", "p90", "p95", "p99"], red_rows)

    result.add_note(f"deadline = Base p95 = {deadline / MS:.1f} ms "
                    "(paper used 13 ms on its hardware)")
    result.add_note(f"MittOS failovers: {strategies['mittos'].failovers}, "
                    f"all-three-busy: {strategies['mittos'].all_busy}")
    result.add_plot("Figure 5a: YCSB get() latency CDF (p90-p100)",
                    [recorders[n] for n in LINES], y_min=0.90,
                    x_max=recorders["base"].p(99.5))
    result.data["recorders"] = recorders
    result.data["deadline_us"] = deadline
    return result


if __name__ == "__main__":
    print(run().render())

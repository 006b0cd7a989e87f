"""Figure 11 — macrobenchmark workload mix (§7.8.1).

Instead of replayed EC2 noise, MongoDB-role nodes are colocated with
filebench personalities (fileserver/varmail/webserver on different nodes —
different noise levels) and the first Hadoop jobs of the Facebook 2010 mix.
Expected shape: a fat Base tail (~15% of IOs slow), Hedged shortens it,
MittCFQ is more effective overall — but *above ~p99* Hedged can win: the
intensive mix makes MongoDB burn its deadline-disabled 3rd retry on nodes
that are themselves busy (the paper's argument for returning the expected
wait time with EBUSY, which ``use_wait_hint`` implements).
"""

from repro._units import MS, SEC
from repro.experiments.common import (ExperimentResult, build_disk_cluster,
                                      make_strategy, percentile_rows,
                                      run_clients)
from repro.metrics.reduction import reduction_curve
from repro.sim import Simulator
from repro.workloads.filebench import personalities, run_filebench
from repro.workloads.hadoop import generate_jobs, run_jobs

LINES = ("base", "hedged", "mittos", "mittos+hint")


def _apply_mix(sim, env, horizon_us):
    """Filebench on 3 of every 4 nodes, Hadoop jobs on the rest."""
    names = personalities()
    for i, node in enumerate(env.nodes):
        injector_span = env.keyspace.span_bytes
        if i % 4 < 3:
            run_filebench(sim, node.os, names[i % 3], injector_span,
                          until_us=horizon_us, pid_base=7000 + 10 * i)
        else:
            jobs = generate_jobs(sim.rng(f"hadoop/{i}"), n_jobs=12,
                                 mean_gap_us=4 * SEC)
            run_jobs(sim, node.os, jobs, injector_span,
                     pid_base=8000 + 100 * i)


def _run_line(sim, name, deadline_us, params, strategy_kwargs=None):
    """One strategy line on ``sim`` under the filebench + Hadoop mix."""
    env = build_disk_cluster(sim, params["n_nodes"])
    _apply_mix(sim, env, params["horizon_us"])
    strategy = make_strategy(name, env.cluster, deadline_us=deadline_us,
                             **(strategy_kwargs or {}))
    rec = run_clients(env, strategy, params["n_clients"], params["n_ops"],
                      think_time_us=6 * MS, name=name,
                      limit_us=params["horizon_us"])
    return rec


def run(quick=True, seed=7):
    params = dict(n_nodes=20, n_clients=20 if quick else 30,
                  n_ops=400 if quick else 1200,
                  horizon_us=(60 if quick else 150) * SEC)

    base = _run_line(Simulator(seed=seed), "base", None, params)
    deadline = base.p(95) * MS
    recorders = {"base": base}
    for name in ("hedged", "mittos"):
        recorders[name] = _run_line(Simulator(seed=seed), name, deadline,
                                    params)
    hint = _run_line(Simulator(seed=seed), "mittos", deadline, params,
                     strategy_kwargs={"use_wait_hint": True})
    hint.name = "mittos+hint"
    recorders["mittos+hint"] = hint

    result = ExperimentResult("fig11", "Macrobenchmark workload mix")
    headers, rows = percentile_rows([recorders[n] for n in LINES],
                                    percentiles=(50, 75, 90, 95, 99))
    result.add_table("Figure 11a: latency with filebench+Hadoop noise (ms)",
                     headers, rows)

    curve = reduction_curve(recorders["hedged"], recorders["mittos"],
                            lo=50, hi=99, step=7)
    result.add_table("Figure 11b: % reduction of MittCFQ vs Hedged by "
                     "percentile",
                     ["percentile", "reduction_%"],
                     [[f"p{p}", round(r, 1)] for p, r in curve])
    result.add_note(f"deadline = Base p95 = {deadline / MS:.1f} ms")
    result.data["recorders"] = recorders
    return result


if __name__ == "__main__":
    print(run().render())

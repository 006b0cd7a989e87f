"""Figure 7 — MittCache vs Hedged under memory contention (§7.4).

20 nodes whose datasets live in the OS cache; memory-space contention
(modelled as partial evictions, the paper's manual swap-out) makes a small
fraction of reads page-fault to disk.  MittCache's addrcheck turns those
into instant EBUSY failovers.  The paper notes a *negative* reduction at
p90/SF=1 — network latency dominates sub-millisecond requests — which our
jittered network can reproduce.
"""

from repro._units import MS, SEC
from repro.experiments.common import (ExperimentResult,
                                      build_cache_cluster, make_strategy,
                                      percentile_rows, run_clients)
from repro.metrics.reduction import latency_reduction
from repro.sim import Simulator



def _run_line(name, deadline_us, sf, params, seed):
    sim = Simulator(seed=seed)
    env = build_cache_cluster(sim, params["n_nodes"],
                              n_keys=params["n_keys"])
    # The paper maintains a *controlled* swap-out per node ("P is based on
    # the cache-miss rate in Figure 3c ... we perform manual swapping"):
    # periodic re-eviction sustains each node's miss pressure against the
    # read path's refills.
    rng = sim.rng("ec2")
    for injector in env.injectors:
        fraction = rng.uniform(0.005, 0.04)
        injector.periodic_cache_eviction(fraction=fraction,
                                         period_us=200 * MS,
                                         until_us=params["horizon_us"])
    strategy = make_strategy(name, env.cluster, deadline_us=deadline_us)
    rec = run_clients(env, strategy, params["n_clients"], params["n_ops"],
                      scale_factor=sf, think_time_us=2 * MS, name=name,
                      limit_us=params["horizon_us"])
    return rec


def cache_scenario(sim):
    """A scaled-down fig7 slice for the determinism harnesses.

    The MittCache line at fig7's 0.2 ms deadline on 6 cache nodes for
    1 s, with staggered client starts (see ``faultsweep.race_scenario``).
    Each node re-evicts 20-40 % of its cache every 200 ms, far above
    fig7's 0.5-4 %: at fig7's own range no read of this slice misses the
    cache, and it must cover ``cache.miss`` besides the addrcheck-probe
    EBUSY and ``cache.swapin`` paths.
    """
    horizon = 1 * SEC
    env = build_cache_cluster(sim, 6, n_keys=3_000)
    rng = sim.rng("ec2")
    for injector in env.injectors:
        injector.periodic_cache_eviction(fraction=rng.uniform(0.2, 0.4),
                                         period_us=200 * MS,
                                         until_us=horizon)
    strategy = make_strategy("mittos", env.cluster, deadline_us=0.2 * MS)
    run_clients(env, strategy, n_clients=4, n_ops=100,
                think_time_us=2 * MS, name="mittos", limit_us=horizon,
                stagger_us=17.0)


def run(quick=True, seed=7):
    params = dict(n_nodes=20, n_keys=3_000,
                  n_clients=20 if quick else 30,
                  n_ops=400 if quick else 1200,
                  horizon_us=(60 if quick else 150) * SEC)

    base = _run_line("base", None, 1, params, seed)
    hedge_delay = base.p(95) * MS
    #: The MittCache deadline is small: the user expects memory residency.
    deadline = 0.2 * MS

    result = ExperimentResult("fig7", "MittCache vs Hedged (sustained swap-out)")
    reductions = {}
    for sf in (1, 2, 5, 10):
        lines = {"base": base if sf == 1 else
                 _run_line("base", None, sf, params, seed)}
        lines["hedged"] = _run_line("hedged", hedge_delay, sf, params, seed)
        lines["mittos"] = _run_line("mittos", deadline, sf, params, seed)
        for key, rec in lines.items():
            rec.name = f"{key}/SF={sf}"
        headers, rows = percentile_rows(
            [lines[n] for n in ("base", "hedged", "mittos")],
            percentiles=(50, 90, 95, 99))
        result.add_table(f"Figure 7: scale factor {sf} (ms)", headers, rows)
        reductions[sf] = latency_reduction(lines["hedged"], lines["mittos"],
                                           percentiles=(75, 90, 95, 99))
        result.data[f"lines_sf{sf}"] = lines
    red_rows = [[f"SF={sf}"] +
                [round(reductions[sf][k], 1)
                 for k in ("avg", "p75", "p90", "p95", "p99")]
                for sf in (1, 2, 5, 10)]
    result.add_table("Figure 7b: % latency reduction of MittCache vs Hedged",
                     ["scale", "avg", "p75", "p90", "p95", "p99"], red_rows)
    result.add_note(f"hedge delay = Base p95 = {hedge_delay / MS:.2f} ms; "
                    f"MittCache deadline = {deadline / MS:.2f} ms")
    result.data["reductions"] = reductions
    return result


if __name__ == "__main__":
    print(run().render())

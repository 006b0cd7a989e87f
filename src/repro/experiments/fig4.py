"""Figure 4 — microbenchmarks: one noisy replica, instant failover (§7.1).

3-node MongoDB-role cluster; every get() is first directed at the noisy
node.  Four scenarios:

* (a) MittCFQ, low-priority noise: 4 threads of 4 KB random reads at lower
  ionice priority — Base's tail starts around p80; MittCFQ follows NoNoise;
* (b) MittCFQ, high-priority noise: same but higher priority — Base is hit
  from p0; MittCFQ still detects the busyness;
* (c) MittSSD: reads queued behind a 64 KB write stream; deadline 2 ms;
* (d) MittCache: ~20% of the cached data evicted; Base page-faults to disk
  at ~p80, MittCache retries elsewhere after the addrcheck.
"""

from repro._units import GB, KB, MS, SEC
from repro.cluster import Network
from repro.engines import KeySpace
from repro.experiments.common import (ExperimentResult, build_disk_node,
                                      build_ssd_cluster, cluster_env,
                                      make_strategy, percentile_rows,
                                      run_clients)
from repro.sim import Simulator


def _micro_env(sim, flavor, n_keys):
    """3 nodes, requests directed at node 0 (the noisy one) first."""
    if flavor == "ssd":
        env = build_ssd_cluster(
            sim, 3, n_keys=n_keys,
            network=Network(sim, hop_us=30.0, jitter_us=3.0))  # local client
    elif flavor in ("disk", "cache"):
        keyspace = KeySpace(n_keys, value_size=1 * KB, span_bytes=800 * GB)
        cache_pages = int(n_keys * 1.3) if flavor == "cache" else None
        nodes = [build_disk_node(sim, i, keyspace, cache_pages=cache_pages)
                 for i in range(3)]
        if cache_pages:
            for node in nodes:
                node.engine.preload(range(n_keys))
        env = cluster_env(sim, nodes, keyspace)
    else:
        raise ValueError(flavor)
    env.cluster.primary_fn = lambda key: 0
    return env


def _run_line(sim, flavor, noise_fn, strategy_name, deadline_us, n_ops):
    """One line on ``sim``: 4 clients against the 3-node micro cluster."""
    env = _micro_env(sim, flavor, n_keys=4_000)
    if noise_fn is not None:
        noise_fn(sim, env)
    strategy = make_strategy(strategy_name, env.cluster,
                             deadline_us=deadline_us)
    return run_clients(env, strategy, n_clients=4, n_ops=n_ops,
                       think_time_us=3 * MS,
                       name=strategy_name, limit_us=600 * SEC)


def run(quick=True, seed=7):
    n_ops = 400 if quick else 1500
    result = ExperimentResult("fig4", "Microbenchmarks: one noisy replica")

    def low_noise(sim, env):
        env.injectors[0].disk_read_threads(n_threads=4, size=64 * KB,
                                           priority=6, gap_us=2 * MS)

    def high_noise(sim, env):
        env.injectors[0].disk_read_threads(n_threads=6, size=256 * KB,
                                           priority=2, gap_us=0.0)

    def ssd_noise(sim, env):
        # A write stream plus other tenants' GC erases: reads queued behind
        # programs/erases are exactly what the 2 ms deadline rejects.
        env.injectors[0].ssd_write_threads(n_threads=2, size=256 * KB,
                                           gap_us=0.0)
        env.injectors[0].ssd_erase_noise(rate_per_sec=400)

    def cache_noise(sim, env):
        env.injectors[0].periodic_cache_eviction(fraction=0.2,
                                                 period_us=500 * MS)

    def scenario(heading, flavor, noise_fn, deadline_us):
        """NoNoise, Base and MittOS lines on fresh same-seed simulators."""
        recs = [
            _run_line(Simulator(seed=seed), flavor, None, "base", None,
                      n_ops),
            _run_line(Simulator(seed=seed), flavor, noise_fn, "base", None,
                      n_ops),
            _run_line(Simulator(seed=seed), flavor, noise_fn, "mittos",
                      deadline_us, n_ops),
        ]
        for rec, name in zip(recs, ("NoNoise", "Base", "MittOS")):
            rec.name = name
        headers, rows = percentile_rows(recs,
                                        percentiles=(50, 80, 90, 95, 99))
        result.add_table(heading, headers, rows)
        return recs

    a = scenario("Figure 4a: MittCFQ - low-priority noise (ms)",
                 "disk", low_noise, 20 * MS)
    b = scenario("Figure 4b: MittCFQ - high-priority noise (ms)",
                 "disk", high_noise, 20 * MS)
    c = scenario("Figure 4c: MittSSD - reads behind writes (ms)",
                 "ssd", ssd_noise, 2 * MS)
    d = scenario("Figure 4d: MittCache - evicted pages (ms)",
                 "cache", cache_noise, 1 * MS)
    result.data["scenarios"] = {"a": a, "b": b, "c": c, "d": d}
    return result


if __name__ == "__main__":
    print(run().render())

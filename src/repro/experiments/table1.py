"""Table 1 — no tail-tolerance in NoSQL (§2).

Six NoSQL systems, each modelled by its behaviour profile: 1 client + 3
replicas, thousands of 1 KB reads, severe one-second contention rotating
across the replicas.  Two findings to reproduce:

1. In default configs *nobody fails over away from the busy replica* —
   the default timeouts (5-75 s) never fire on a 1 s burst, so reads stall
   for up to the burst length (p99 in the tens of ms instead of ~6 ms).
2. With the timeout forced to 100 ms, three of six return read *errors*
   on timeout instead of retrying a less-busy replica.
"""

from repro._units import MS, SEC
from repro.cluster.nosql_profiles import NOSQL_PROFILES
from repro.experiments.common import (ExperimentResult, build_disk_cluster,
                                      run_clients)
from repro.sim import Simulator
from repro.workloads.noise import rotating_contention


def _run_system(sim, profile, tuned, params):
    """One NoSQL profile on ``sim``: 3 replicas under rotating one-second
    contention, in its default or 100 ms-timeout configuration."""
    env = build_disk_cluster(sim, 3, replication=3, mitt=False)
    rotating_contention(sim, env.injectors, 1 * SEC, params["horizon_us"])
    if tuned:
        strategy = profile.tuned_strategy(env.cluster, timeout_us=100 * MS)
    else:
        strategy = profile.default_strategy(env.cluster)
    rec = run_clients(env, strategy, params["n_clients"], params["n_ops"],
                      think_time_us=5 * MS, name=profile.name,
                      limit_us=params["horizon_us"],
                      stagger_us=params.get("stagger_us", 0.0))
    return rec, strategy


def race_scenario(sim):
    """A scaled-down table1 slice for the determinism harnesses.

    One NoSQL profile (the first, MongoDB-like) in its default
    no-failover configuration under rotating one-second contention, with
    staggered client starts to keep t=0 free of symmetric ties (see
    ``faultsweep.race_scenario``).
    """
    params = dict(n_clients=3, n_ops=30, horizon_us=4 * SEC,
                  stagger_us=17.0)
    _run_system(sim, NOSQL_PROFILES[0], False, params)


def run(quick=True, seed=7):
    params = dict(n_clients=4, n_ops=300 if quick else 1200,
                  horizon_us=(40 if quick else 120) * SEC)

    result = ExperimentResult("table1", "No TT in NoSQL")
    rows = []
    for profile in NOSQL_PROFILES:
        default_rec, default_strategy = _run_system(
            Simulator(seed=seed), profile, False, params)
        tuned_rec, tuned_strategy = _run_system(Simulator(seed=seed),
                                                profile, True, params)
        timeouts = getattr(default_strategy, "timeouts", 0)
        tuned_errors = tuned_rec.counters.get("eio", 0)
        tuned_retries = getattr(tuned_strategy, "retries", 0)
        rows.append([
            profile.name,
            f"{profile.default_timeout_us / SEC:.0f}s",
            "yes" if profile.failover_on_timeout else "NO",
            "yes" if profile.has_clone else "no",
            "yes" if profile.has_hedged else "no",
            round(default_rec.p(99), 1),
            timeouts,
            tuned_errors,
            tuned_retries,
        ])
    result.add_table(
        "Table 1: behaviour under 1-second rotating contention",
        ["system", "def_TO", "failover", "clone", "hedged",
         "default_p99_ms", "def_TO_fired", "100ms_TO_errors",
         "100ms_TO_retries"], rows)
    result.add_note("default timeouts never fire on 1 s bursts (col "
                    "def_TO_fired = 0): no system fails over by default")
    result.add_note("with a 100 ms timeout, the three no-failover systems "
                    "surface read errors (100ms_TO_errors > 0) even though "
                    "two replicas are idle")
    result.data["rows"] = rows
    return result


if __name__ == "__main__":
    print(run().render())

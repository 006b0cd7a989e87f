"""Figure 8 — MittSSD vs Hedged on one machine (§7.5).

The paper had a single OpenChannel SSD, so it carved it into 6 partitions
with disjoint channels, ran 6 MongoDB nodes on one 8-hardware-thread
machine, and found something surprising: *hedged requests were worse than
Base*.  The hedge duplicates make 12 request handlers contend for 8 CPU
threads (SSD IOs are so fast the workload is CPU-bound), so hedging inflicts
a CPU tail.  MittSSD avoids the duplicates entirely.

We reproduce the setup: 6 SSD "partitions" (independent devices with a
couple of channels each), one shared 8-slot CPU, local-machine network,
deadline = p95 (about 0.3 ms).
"""

from repro._units import MS, SEC
from repro.cluster import Network
from repro.devices import SsdGeometry
from repro.experiments.common import (ExperimentResult, build_ssd_cluster,
                                      make_strategy, percentile_rows,
                                      run_clients)
from repro.metrics.reduction import latency_reduction
from repro.sim import Simulator
from repro.workloads import Ec2NoiseModel


def _run_line(name, deadline_us, sf, params, seed, sim=None,
              stagger_us=0.0):
    """One strategy line; ``sim`` lets a caller supply the simulator."""
    if sim is None:
        sim = Simulator(seed=seed)
    geometry = SsdGeometry(n_channels=2, chips_per_channel=8,
                           blocks_per_chip=32)
    env = build_ssd_cluster(
        sim, 6, n_keys=params["n_keys"], geometry=geometry,
        shared_cpu_slots=8, handler_cpu_us=150.0,
        network=Network(sim, hop_us=30.0, jitter_us=3.0))
    model = Ec2NoiseModel("ssd")
    rng = sim.rng("ec2")
    for injector, eps in zip(env.injectors,
                             model.schedules(rng, 6, params["horizon_us"])):
        injector.run_schedule([tuple(e) for e in eps], style="ssd")
        injector.ssd_erase_noise(rate_per_sec=60,
                                 until_us=params["horizon_us"])
    strategy = make_strategy(name, env.cluster, deadline_us=deadline_us)
    rec = run_clients(env, strategy, 6, params["n_ops"], scale_factor=sf,
                      think_time_us=0.2 * MS, name=name,
                      limit_us=params["horizon_us"], stagger_us=stagger_us)
    return rec


def race_scenario(sim):
    """A scaled-down fig8 slice for the determinism harnesses.

    The MittSSD line at a fixed 0.3 ms deadline (the paper's p95 scale)
    on the 6-partition, 2x8-chip machine, under SSD noise and chip
    erases for 1 s, with staggered client starts (see
    ``faultsweep.race_scenario``).
    """
    params = dict(n_keys=6_000, n_ops=500, horizon_us=1 * SEC)
    _run_line("mittos", 0.3 * MS, 1, params, sim.seed, sim=sim,
              stagger_us=17.0)


def run(quick=True, seed=7):
    params = dict(n_keys=6_000, n_ops=800 if quick else 3000,
                  horizon_us=(30 if quick else 120) * SEC)

    base = _run_line("base", None, 1, params, seed)
    hedge_delay = base.p(95) * MS
    deadline = hedge_delay  # p95, as in §7.5 (~0.3 ms scale)

    result = ExperimentResult("fig8", "MittSSD vs Hedged, 6 partitions "
                                      "on one machine")
    reductions = {}
    for sf in (1, 2, 5):
        lines = {"base": base if sf == 1 else
                 _run_line("base", None, sf, params, seed)}
        lines["hedged"] = _run_line("hedged", hedge_delay, sf, params, seed)
        lines["mittos"] = _run_line("mittos", deadline, sf, params, seed)
        for key, rec in lines.items():
            rec.name = f"{key}/SF={sf}"
        headers, rows = percentile_rows(
            [lines[n] for n in ("base", "hedged", "mittos")],
            percentiles=(50, 90, 95, 99))
        result.add_table(f"Figure 8: scale factor {sf} (ms)", headers, rows)
        reductions[sf] = latency_reduction(lines["hedged"], lines["mittos"],
                                           percentiles=(75, 90, 95, 99))
    red_rows = [[f"SF={sf}"] +
                [round(reductions[sf][k], 1)
                 for k in ("avg", "p75", "p90", "p95", "p99")]
                for sf in (1, 2, 5)]
    result.add_table("Figure 8b: % latency reduction of MittSSD vs Hedged",
                     ["scale", "avg", "p75", "p90", "p95", "p99"], red_rows)
    result.add_note(f"deadline = hedge delay = Base p95 = "
                    f"{hedge_delay / MS:.2f} ms")
    result.data["reductions"] = reductions
    return result


if __name__ == "__main__":
    print(run().render())

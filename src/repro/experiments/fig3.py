"""Figure 3 — millisecond-level latency dynamism "in EC2" (§6).

The paper probes 20 EC2 nodes for 8 hours per resource: a 4 KB read every
100 ms (disk) / 20 ms (SSD and OS cache), and reports (a-c) per-node latency
CDFs, (d-f) noise inter-arrival CDFs, and (g) the probability that N nodes
are busy simultaneously.  We run the same probes against 20 simulated nodes
driven by the synthetic EC2 noise model and verify the three observations:

1. tails from ~p97 (disk > 20 ms, SSD > 0.5 ms, cache > 0.05 ms);
2. bursty, irregular noise inter-arrivals (no spike at zero);
3. P(N busy) diminishing rapidly — mostly only 1-2 nodes of 20.
"""

from repro._units import GB, KB, MS, SEC
from repro.engines import KeySpace
from repro.experiments.common import (ExperimentResult, apply_ec2_noise,
                                      build_disk_cluster, build_disk_node,
                                      build_ssd_node, make_strategy,
                                      run_clients)
from repro.metrics.latency import LatencyRecorder, percentile
from repro.sim import Simulator
from repro.workloads import Ec2NoiseModel, NoiseInjector

PROBE_GAPS = {"disk": 100 * MS, "ssd": 20 * MS, "cache": 20 * MS}
BUSY_THRESHOLDS_MS = {"disk": 20.0, "ssd": 1.0, "cache": 0.05}


def _probe_nodes(resource, n_nodes, horizon_us, seed, sim=None):
    """Run the probe workload on n nodes; returns per-node recorders and
    the noise schedules used.

    ``sim`` lets a caller supply a pre-built simulator (e.g. a paranoid one
    for replay verification); by default a fresh ``Simulator(seed=seed)``
    is used, as in the paper runs.
    """
    if sim is None:
        sim = Simulator(seed=seed)
    model = Ec2NoiseModel(resource)
    keyspace = KeySpace(5_000, value_size=4 * KB,
                        span_bytes=(800 * GB if resource == "disk"
                                    else 4 * GB),
                        align=(4 * KB if resource == "disk" else 16 * KB))
    nodes = []
    for i in range(n_nodes):
        if resource == "disk":
            node = build_disk_node(sim, i, keyspace, mitt=False)
        elif resource == "ssd":
            node = build_ssd_node(sim, i, keyspace, mitt=False)
        else:
            node = build_disk_node(sim, i, keyspace, mitt=False,
                                   cache_pages=int(5_000 * 1.3))
            node.engine.preload(range(5_000))
        nodes.append(node)

    schedules = model.schedules(sim.rng("ec2"), n_nodes, horizon_us)
    recorders = []
    gap = PROBE_GAPS[resource]
    for i, node in enumerate(nodes):
        injector = NoiseInjector(sim, node.os, keyspace.span_bytes,
                                 name=f"n{i}")
        injector.run_schedule([tuple(ep) for ep in schedules[i]],
                              style=resource)
        rec = LatencyRecorder(f"node{i}")
        recorders.append(rec)
        sim.process(_probe_loop(sim, node, keyspace, rec, gap, horizon_us))
    sim.run(until=horizon_us)
    return recorders, schedules


def _probe_loop(sim, node, keyspace, recorder, gap_us, horizon_us):
    rng = sim.rng(f"probe/{node.node_id}")
    while sim.now < horizon_us:
        key = rng.randrange(keyspace.n_keys)
        start = sim.now
        yield sim.process(node.engine.get(key))
        recorder.add(sim.now - start)
        yield gap_us


def _interarrival_stats(recorder, threshold_ms, gap_us):
    """Gaps between noisy probes (observed busy periods), in seconds."""
    limit = threshold_ms * MS
    noisy_times = [i * gap_us for i, s in enumerate(recorder.samples)
                   if s > limit]
    gaps = [(b - a) / SEC for a, b in zip(noisy_times, noisy_times[1:])]
    return gaps


def replay_scenario(sim, resource="disk", n_nodes=3, horizon_us=2 * SEC):
    """A scaled-down fig3 probe on a caller-supplied simulator.

    Used with :func:`repro.analysis.verify_replay` to check that the
    experiment replays bit-identically under ``paranoid=True``.
    """
    _probe_nodes(resource, n_nodes, horizon_us, seed=sim.seed, sim=sim)


def ssd_scenario(sim):
    """The fig3 SSD probe under write/erase noise (3 nodes, 2 s) — the
    slice that pins the OpenChannel SSD model's timing."""
    _probe_nodes("ssd", 3, 2 * SEC, seed=sim.seed, sim=sim)


def accuracy_scenario(sim, n_nodes=5, horizon_us=2 * SEC):
    """A shadow-mode MittOS slice for the prediction-accuracy observatory.

    :func:`replay_scenario` is golden-pinned and probes with ``mitt=False``
    — it makes no admission decisions at all — so the accuracy CLI gets
    its own hook: a small MittCFQ disk cluster in **shadow mode** (§7.6 —
    verdicts recorded, never enforced, so every would-be-rejected IO
    still runs and can be graded against its actual wait), EC2 disk
    noise, and deadline-tagged YCSB clients.  Client starts are staggered
    like the race scenarios so the slice stays free of t=0 tie races.
    """
    from repro.workloads import Ec2NoiseModel

    env = build_disk_cluster(sim, n_nodes, shadow=True)
    apply_ec2_noise(env, Ec2NoiseModel("disk"), horizon_us)
    strategy = make_strategy("mittos", env.cluster, deadline_us=20 * MS)
    run_clients(env, strategy, n_clients=4, n_ops=40,
                think_time_us=2 * MS, name="mittos", limit_us=horizon_us,
                stagger_us=17.0)


def run(quick=True, seed=7):
    n_nodes = 20
    horizon = (60 if quick else 240) * SEC

    result = ExperimentResult("fig3", "EC2 millisecond dynamism")
    for resource in ("disk", "ssd", "cache"):
        recorders, schedules = _probe_nodes(resource, n_nodes, horizon, seed)
        merged = LatencyRecorder(resource)
        for rec in recorders:
            merged.extend(rec)
        rows = [[resource, len(merged), round(merged.p(50), 3),
                 round(merged.p(90), 3), round(merged.p(95), 3),
                 round(merged.p(97), 3), round(merged.p(99), 3),
                 round(merged.max_ms(), 3)]]
        result.add_table(
            f"Figure 3 ({resource}): probe latency percentiles (ms)",
            ["resource", "n", "p50", "p90", "p95", "p97", "p99", "max"],
            rows)
        result.data[f"{resource}_merged"] = merged
        result.data[f"{resource}_recorders"] = recorders

        # Observation 2: inter-arrival of noisy periods (Figure 3d-f).
        gaps = []
        for rec in recorders:
            gaps.extend(_interarrival_stats(
                rec, BUSY_THRESHOLDS_MS[resource], PROBE_GAPS[resource]))
        if gaps:
            result.add_table(
                f"Figure 3d-f ({resource}): noise inter-arrival (s)",
                ["n_gaps", "p25", "p50", "p75", "p95"],
                [[len(gaps), round(percentile(gaps, 25), 2),
                  round(percentile(gaps, 50), 2),
                  round(percentile(gaps, 75), 2),
                  round(percentile(gaps, 95), 2)]])
            result.data[f"{resource}_interarrivals"] = gaps

        # Observation 3 (Figure 3g): P(N nodes busy simultaneously).
        probs = Ec2NoiseModel.busy_simultaneity(schedules, horizon)
        row = [round(p, 3) for p in probs[:5]]
        row += [0.0] * (5 - len(row))
        result.add_table(
            f"Figure 3g ({resource}): P(N nodes busy simultaneously)",
            ["P(0)", "P(1)", "P(2)", "P(3)", "P(4)"], [row])
        result.data[f"{resource}_busy_probs"] = probs
    return result


if __name__ == "__main__":
    print(run().render())

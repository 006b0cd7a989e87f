"""§7.8.6 — write latencies are not the problem.

Writes in MongoDB-style stores are buffered in memory and flushed in the
background; modern drives additionally absorb flushes in capacitor-backed
NVRAM.  A write-only YCSB workload under heavy disk noise should therefore
show Base ≈ NoNoise — the reason MittOS only targets reads.
"""

from repro._units import MS, SEC
from repro.experiments.common import (ExperimentResult, apply_ec2_noise,
                                      build_disk_cluster, percentile_rows)
from repro.metrics.latency import LatencyRecorder
from repro.sim import Simulator
from repro.workloads import Ec2NoiseModel, UniformKeys


def _run_line(sim, noisy, params):
    """The write-only line on ``sim``, with or without EC2 disk noise."""
    env = build_disk_cluster(sim, params["n_nodes"])
    if noisy:
        apply_ec2_noise(env, Ec2NoiseModel("disk", busy_fraction=0.08),
                        params["horizon_us"])
    recorder = LatencyRecorder("Base" if noisy else "NoNoise")
    procs = []
    for i in range(params["n_clients"]):
        dist = UniformKeys(env.keyspace.n_keys, sim.rng(f"keys/{i}"))
        procs.append(sim.process(
            _write_loop(sim, env, dist, recorder, params["n_ops"])))
    sim.run_until(sim.all_of(procs), limit=params["horizon_us"])
    return recorder


def _write_loop(sim, env, dist, recorder, n_ops):
    network = env.cluster.network
    for _ in range(n_ops):
        key = dist.next_key()
        replicas = env.cluster.replicas_for(key)
        start = sim.now
        # Primary-ack write (replication drains in the background).
        primary = replicas[0]
        yield network.send(network.CLIENT, primary.node_id)
        yield from primary.put(key)
        yield network.send(primary.node_id, network.CLIENT)
        recorder.add(sim.now - start)
        yield 5 * MS


def run(quick=True, seed=7):
    params = dict(n_nodes=20, n_clients=20, n_ops=300 if quick else 1200,
                  horizon_us=(60 if quick else 150) * SEC)
    nonoise = _run_line(Simulator(seed=seed), False, params)
    base = _run_line(Simulator(seed=seed), True, params)

    result = ExperimentResult("writes", "Write latencies under disk noise")
    headers, rows = percentile_rows([nonoise, base],
                                    percentiles=(50, 90, 95, 99))
    result.add_table("YCSB write-only latency (ms)", headers, rows)
    gap = abs(base.p(99) - nonoise.p(99))
    result.add_note(f"Base vs NoNoise p99 gap: {gap:.3f} ms — buffered "
                    "writes hide device contention")
    result.data["nonoise"] = nonoise
    result.data["base"] = base
    return result


if __name__ == "__main__":
    print(run().render())

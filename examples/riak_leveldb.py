#!/usr/bin/env python
"""Two-level integration: LevelDB engine inside a Riak-style store (§5).

The LSM engine issues SLO-tagged block reads; when the kernel predicts a
deadline violation the EBUSY propagates out of the engine to the
replicated coordinator, which retries another replica — 50 lines of
integration in the paper, a few lines of library use here.

Run:  python examples/riak_leveldb.py
"""

from repro._units import MS, SEC
from repro.errors import is_ebusy
from repro.experiments.common import build_lsm_cluster
from repro.metrics.latency import LatencyRecorder
from repro.sim import Simulator

N_KEYS = 4000


def main():
    sim = Simulator(seed=5)
    env = build_lsm_cluster(sim, 3, N_KEYS)
    cluster = env.cluster

    # One replica gets a noisy neighbour.
    env.injectors[0].run_schedule([(2 * SEC, 2 * SEC, 4),
                                   (8 * SEC, 2 * SEC, 4)])

    deadline = 15 * MS
    recorder = LatencyRecorder("riak-get")
    stats = {"failover": 0}

    def riak_get(key):
        """Riak-style coordinator: EBUSY from LevelDB -> next replica."""
        net = cluster.network
        replicas = cluster.replicas_for(key)
        for i, node in enumerate(replicas):
            last = i == len(replicas) - 1
            yield net.send(net.CLIENT, node.node_id)
            result = yield from node.get(key, None if last else deadline)
            yield net.send(node.node_id, net.CLIENT)
            if not is_ebusy(result):
                return result
            stats["failover"] += 1
        return None

    def client():
        rng = sim.rng("client")
        for _ in range(1500):
            start = sim.now
            record = yield sim.process(riak_get(rng.randrange(N_KEYS)))
            assert record is not None
            recorder.add(sim.now - start)
            yield 5 * MS

    sim.process(client())
    sim.run()

    print(f"gets: {len(recorder)}  failovers: {stats['failover']}")
    print(f"p50 {recorder.p(50):.1f}ms | p95 {recorder.p(95):.1f}ms | "
          f"p99 {recorder.p(99):.1f}ms")
    engine = env.nodes[0].engine
    print(f"node0 LevelDB: {engine.gets} gets, {engine.ebusy} EBUSY "
          "propagated")


if __name__ == "__main__":
    main()

"""§7.8.5 — MittCFQ + MittSSD + MittCache in one deployment.

The paper's setup, reproduced structurally: each replica is ONE partition
whose read path is page cache -> bcache-style flash cache -> disk
(:mod:`repro.kernel.tiered`), with all three MittOS managements active.
Three users share it with different working sets and deadlines:

* user A — cold data (disk resident), 20 ms deadline (MittCFQ decides);
* user B — warm data (flash-cache resident), 2 ms deadline (MittSSD);
* user C — hot data (page-cache resident), 1 ms deadline (MittCache).

One replica receives all three noises at once (disk contention, SSD
background writes + GC erases, page swap-outs).  Expected: "results
similar to Figure 4" per user — every tail cut simultaneously.
"""

from repro._units import GB, KB, MB, MS, SEC
from repro.cluster import Network
from repro.engines import KeySpace
from repro.errors import is_ebusy
from repro.experiments.common import (ExperimentResult, disk_os,
                                      percentile_rows, ssd_os)
from repro.kernel import PageCache
from repro.kernel.flashcache import FlashCache
from repro.kernel.tiered import TieredStack
from repro.metrics.latency import LatencyRecorder
from repro.sim import Simulator
from repro.workloads import NoiseInjector

N_KEYS_PER_USER = 2_000
USERS = (
    ("A/disk", "cold", 20 * MS),
    ("B/ssd", "warm", 2 * MS),
    ("C/cache", "hot", 1 * MS),
)


class TieredReplica:
    """One machine: tiered stack + keyspace + per-tier preloading."""

    def __init__(self, sim, index):
        self.sim = sim
        self.index = index
        self.disk_os = disk_os(sim, f"disk{index}")
        self.ssd_os = ssd_os(sim, f"fcache{index}")
        self.flash = FlashCache(sim, self.ssd_os, self.disk_os,
                                capacity_bytes=256 * MB)
        self.page_cache = PageCache(sim, int(N_KEYS_PER_USER * 1.5))
        self.stack = TieredStack(sim, self.page_cache, self.flash)
        #: One keyspace per user region; regions are disjoint on disk.
        self.keyspaces = {
            "cold": KeySpace(N_KEYS_PER_USER, value_size=1 * KB,
                             span_bytes=600 * GB),
            "warm": KeySpace(N_KEYS_PER_USER, value_size=1 * KB,
                             span_bytes=100 * GB),
            "hot": KeySpace(N_KEYS_PER_USER, value_size=1 * KB,
                            span_bytes=50 * GB),
        }
        self._preload()

    def _preload(self):
        warm = self.keyspaces["warm"]
        for key in range(N_KEYS_PER_USER):
            offset, _ = warm.locate(key)
            extent = self.flash._extent_of(offset)
            if extent not in self.flash._extents:
                self.flash._access_counts[extent] = 99
                self.flash._promote(extent)
        hot = self.keyspaces["hot"]
        for key in range(N_KEYS_PER_USER):
            offset, size = hot.locate(key)
            self.page_cache.insert(2, offset, size)

    def get(self, region, key, deadline=None):
        file_id = {"cold": 0, "warm": 1, "hot": 2}[region]
        offset, size = self.keyspaces[region].locate(key)
        return self.stack.read(file_id, offset, size, pid=100,
                               deadline=deadline)


def _inject_all_noises(sim, replica, horizon_us):
    """Disk + SSD + cache contention on one replica, simultaneously."""
    disk_noise = NoiseInjector(sim, replica.disk_os, 900 * GB,
                               name=f"disk{replica.index}")
    disk_noise.disk_read_threads(n_threads=6, size=256 * KB, priority=2,
                                 until_us=horizon_us, gap_us=0.0)
    ssd_noise = NoiseInjector(sim, replica.ssd_os, 2 * GB,
                              name=f"ssd{replica.index}")
    ssd_noise.ssd_write_threads(n_threads=2, size=256 * KB,
                                until_us=horizon_us)
    ssd_noise.ssd_erase_noise(rate_per_sec=400, until_us=horizon_us)
    sim.process(_evict_loop(sim, replica.page_cache, horizon_us))


def _evict_loop(sim, cache, horizon_us):
    rng = sim.rng("allinone/evict")
    while sim.now < horizon_us:
        cache.evict_fraction(0.2, rng)
        yield 500 * MS


def _run_user(sim, replicas, network, region, deadline, mitt, n_ops,
              recorder):
    """Closed-loop client for one user, EBUSY-failover across replicas."""

    def client():
        rng = sim.rng(f"user/{region}/{mitt}")
        for _ in range(n_ops):
            key = rng.randrange(N_KEYS_PER_USER)
            start = sim.now
            for i, replica in enumerate(replicas):
                last = i == len(replicas) - 1
                dl = deadline if (mitt and not last) else None
                yield network.send(network.CLIENT, replica.index)
                result = yield from replica.get(region, key, dl)
                yield network.send(replica.index, network.CLIENT)
                if not is_ebusy(result):
                    break
            recorder.add(sim.now - start)
            yield 3 * MS

    return sim.process(client())


def _run_world(sim, noisy, mitt, n_ops):
    """One line on ``sim``: the three users against three tiered replicas,
    with or without the noises and MittOS deadlines."""
    replicas = [TieredReplica(sim, i) for i in range(3)]
    network = Network(sim)
    horizon = 300 * SEC
    if noisy:
        _inject_all_noises(sim, replicas[0], horizon)
    recorders = {}
    procs = []
    for name, region, deadline in USERS:
        rec = LatencyRecorder(name)
        recorders[name] = rec
        procs.append(_run_user(sim, replicas, network, region, deadline,
                               mitt, n_ops, rec))
    sim.run_until(sim.all_of(procs), limit=horizon)
    return recorders


def run(quick=True, seed=7):
    n_ops = 400 if quick else 1500
    nonoise = _run_world(Simulator(seed=seed), noisy=False, mitt=False,
                         n_ops=n_ops)
    base = _run_world(Simulator(seed=seed), noisy=True, mitt=False,
                      n_ops=n_ops)
    mitt = _run_world(Simulator(seed=seed), noisy=True, mitt=True,
                      n_ops=n_ops)

    result = ExperimentResult("allinone", "All resources at once "
                                          "(tiered replicas)")
    summary = {}
    for name, region, deadline in USERS:
        lines = [nonoise[name], base[name], mitt[name]]
        lines[0].name = "NoNoise"
        lines[1].name = "Base"
        lines[2].name = "MittOS"
        headers, rows = percentile_rows(lines,
                                        percentiles=(50, 80, 90, 95, 99))
        result.add_table(
            f"All-in-one, user {name} (deadline {deadline / MS:g} ms)",
            headers, rows)
        summary[region] = lines
    result.add_note("one tiered partition per replica (page cache -> "
                    "bcache-style flash -> disk); all three noises at "
                    "once; expected: Figure 4 shapes per user")
    result.data["summary"] = summary
    return result


if __name__ == "__main__":
    print(run().render())

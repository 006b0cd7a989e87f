#!/usr/bin/env python
"""MittSSD on an OpenChannel SSD: millisecond SLOs on flash.

A read-mostly tenant sets a sub-millisecond deadline; a neighbour streams
writes and background GC erases chips.  MittSSD's per-chip bookkeeping
rejects exactly the reads that would queue behind a program or an erase
(§4.3), and the tenant retries on a replica partition.

Run:  python examples/ssd_slo_reads.py
"""

from repro._units import KB, MS, SEC
from repro.devices import Ssd, SsdGeometry
from repro.devices.ssd_profile import SsdLatencyModel, profile_ssd
from repro.errors import is_ebusy
from repro.kernel import NoopScheduler, OS
from repro.metrics.latency import LatencyRecorder
from repro.mittos import MittSsd
from repro.sim import Simulator
from repro.workloads import NoiseInjector


def build_partition(sim, name):
    """One SSD partition with its own channels (as in §7.5)."""
    geometry = SsdGeometry(n_channels=4, chips_per_channel=8)
    ssd = Ssd(sim, geometry, name=name)
    model = SsdLatencyModel.from_spec(geometry)
    os_ = OS(sim, ssd, NoopScheduler(sim, ssd),
             predictor=MittSsd(ssd, model))
    return os_


def main():
    sim = Simulator(seed=3)
    primary = build_partition(sim, "primary")
    replica = build_partition(sim, "replica")

    # Profiling demo: measure the device constants like the paper does.
    profiled = profile_ssd(lambda s: Ssd(s, SsdGeometry(jitter_frac=0.0)))
    print(f"profiled: {profiled}\n")

    # The noisy neighbour: write streams + GC erases on the primary.
    injector = NoiseInjector(sim, primary, span_bytes=2 << 30)
    injector.ssd_write_threads(n_threads=2, size=256 * KB,
                               until_us=10 * SEC)
    injector.ssd_erase_noise(rate_per_sec=300, until_us=10 * SEC)

    latencies = LatencyRecorder("tenant")
    deadline = 0.5 * MS  # "read-mostly tenant can set a deadline of <1ms"

    def tenant():
        rng = sim.rng("tenant")
        failovers = 0
        for _ in range(2000):
            offset = rng.randrange(0, 2 << 30) // (16 * KB) * (16 * KB)
            start = sim.now
            result = yield from primary.read(0, offset, 16 * KB,
                                             deadline=deadline)
            if is_ebusy(result):
                failovers += 1
                yield from replica.read(0, offset, 16 * KB)
            latencies.add(sim.now - start)
            yield 2 * MS
        print(f"reads: {len(latencies)}, EBUSY failovers: {failovers}")

    sim.process(tenant())
    sim.run()

    print(f"p50 {latencies.p(50) * 1000:.0f}us | "
          f"p95 {latencies.p(95) * 1000:.0f}us | "
          f"p99 {latencies.p(99) * 1000:.0f}us | "
          f"max {latencies.max_ms() * 1000:.0f}us")
    print("\nWithout MittSSD those p99 reads would sit behind 1-6 ms "
          "programs/erases.")


if __name__ == "__main__":
    main()

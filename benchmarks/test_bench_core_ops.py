"""Micro-benchmarks of the hot prediction paths.

The paper's performance requirement is that prediction be cheap enough to
keep high request rates — O(1)-ish per IO (<5 µs of kernel CPU; 300 ns for
MittSSD).  Our analogue is the Python cost of one ``admit()`` under a
loaded queue, which these benches track so regressions show up.
"""

from repro._units import GB, KB
from repro.devices import (BlockRequest, Disk, DiskParams, IoOp, Ssd,
                           SsdGeometry)
from repro.devices.disk_profile import profile_disk
from repro.devices.ssd_profile import SsdLatencyModel
from repro.kernel import CfqScheduler, NoopScheduler, OS
from repro.mittos import MittCfq, MittSsd
from repro.sim import Simulator


def _loaded_disk_stack():
    sim = Simulator(seed=1)
    disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
    sched = CfqScheduler(sim, disk)
    model = profile_disk(lambda s: Disk(s, DiskParams(
        jitter_frac=0.0, hiccup_prob=0.0)))
    predictor = MittCfq(model)
    os_ = OS(sim, disk, sched, predictor=predictor)
    rng = sim.rng("load")
    for i in range(32):
        sim.process(os_.read(0, rng.randrange(0, 900 * GB), 256 * KB,
                             pid=i % 8))
    sim.run(until=sim.now)
    return predictor


def test_mittcfq_admit_under_load(benchmark):
    predictor = _loaded_disk_stack()

    def admit():
        req = BlockRequest(IoOp.READ, 400 * GB, 4 * KB, pid=1)
        return predictor.admit(req, deadline=20_000.0, probe_only=True)

    verdict = benchmark(admit)
    assert verdict is not None


def test_mittssd_admit_under_load(benchmark):
    sim = Simulator(seed=2)
    ssd = Ssd(sim, SsdGeometry(jitter_frac=0.0))
    sched = NoopScheduler(sim, ssd)
    predictor = MittSsd(ssd, SsdLatencyModel.from_spec(ssd.geometry))
    os_ = OS(sim, ssd, sched, predictor=predictor)
    rng = sim.rng("load")
    for _ in range(64):
        sim.process(os_.read(0, rng.randrange(0, 4096) * 16 * KB, 16 * KB))
    sim.run(until=sim.now)

    def admit():
        req = BlockRequest(IoOp.READ, 100 * 16 * KB, 16 * KB)
        return predictor.admit(req, deadline=2_000.0, probe_only=True)

    verdict = benchmark(admit)
    assert verdict is not None


def test_simulator_event_throughput(benchmark):
    def burst():
        sim = Simulator(seed=3)
        count = [0]
        for i in range(1000):
            sim.schedule(float(i), lambda: count.__setitem__(
                0, count[0] + 1))
        sim.run()
        return count[0]

    assert benchmark(burst) == 1000


def test_disk_io_throughput(benchmark):
    def run_ios():
        sim = Simulator(seed=4)
        disk = Disk(sim, DiskParams(jitter_frac=0.0, hiccup_prob=0.0))
        rng = sim.rng("io")

        def loop():
            for _ in range(200):
                req = BlockRequest(IoOp.READ,
                                   rng.randrange(0, 900 * GB) // 4096
                                   * 4096, 4 * KB)
                done = sim.event()
                req.add_callback(done.succeed)
                disk.submit(req)
                yield done

        sim.process(loop())
        sim.run()
        return disk.completed

    assert benchmark(run_ios) == 200

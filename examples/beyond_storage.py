#!/usr/bin/env python
"""MittOS beyond the storage stack (§8.2) + auto-deadlines (§8.1).

Three vignettes the paper sketches as future work, running on this
library's extensions:

1. **VMM timeslices** — messages to a descheduled VM park for tens of ms;
   MittVMM rejects them when the VM will sleep past the deadline.
2. **Runtime GC** — requests stall behind stop-the-world pauses; MittGC
   rejects ahead of an (exactly predictable) imminent collection.
3. **SMR band cleaning** — reads stall behind 400 ms cleaning sweeps;
   MittSMR's cleaning-aware horizon rejects them instantly.

Plus the §8.1 controller that finds the deadline "sweet spot" on its own.

Run:  python examples/beyond_storage.py
"""

from repro._units import GB, KB, MB, MS, SEC
from repro.devices import Disk, DiskParams
from repro.devices.request import BlockRequest, IoOp
from repro.devices.disk_profile import profile_disk
from repro.devices.smr import SmrDisk, SmrParams
from repro.errors import is_ebusy
from repro.extensions import ManagedRuntime, MittGc, MittVmm, Vmm
from repro.kernel import NoopScheduler, OS
from repro.metrics.latency import LatencyRecorder
from repro.mittos.autodeadline import DeadlineController
from repro.mittos.mittsmr import MittSmr
from repro.sim import Simulator


def vmm_demo():
    print("== 1. VMM timeslices (30 ms) ==")
    sim = Simulator(seed=1)
    vmm = Vmm(sim, n_vms=3, timeslice_us=30 * MS)
    mitt = MittVmm(vmm)
    base, fast = LatencyRecorder("base"), LatencyRecorder("mitt")

    def client(recorder, deadline):
        rng = sim.rng(f"c/{deadline}")
        for _ in range(200):
            start = sim.now
            result = yield mitt.deliver(rng.randrange(3),
                                        deadline_us=deadline)
            if is_ebusy(result):
                yield 300.0  # one hop to a machine whose VM is awake
                yield vmm.deliver(vmm.running_vm(), service_us=100.0)
            recorder.add(sim.now - start)
            yield 3 * MS

    proc = sim.process(client(base, None))
    sim.run_until(proc)
    proc = sim.process(client(fast, 5 * MS))
    sim.run_until(proc)
    print(f"  base p95 {base.p(95):5.1f} ms  ->  "
          f"MittVMM p95 {fast.p(95):5.2f} ms "
          f"({mitt.rejected} rejections)\n")


def gc_demo():
    print("== 2. Managed-runtime GC pauses ==")
    sim = Simulator(seed=2)
    runtime = ManagedRuntime(sim, heap_bytes=64 * MB, min_pause_us=80 * MS)
    mitt = MittGc(runtime)
    base, fast = LatencyRecorder("base"), LatencyRecorder("mitt")

    def client(recorder, deadline, tag):
        rng = sim.rng(f"g/{deadline}/{tag}")
        for _ in range(200):
            start = sim.now
            result = yield mitt.allocate(int(rng.uniform(64, 512)) * KB,
                                         deadline_us=deadline)
            if is_ebusy(result):
                yield 300.0  # serve from a replica runtime
                yield 200.0
            recorder.add(sim.now - start)
            yield 1 * MS

    # 4 concurrent request handlers share the runtime (a GC triggered by
    # any of them stalls the other three — stop-the-world).
    procs = [sim.process(client(base, None, t)) for t in range(4)]
    sim.run_until(sim.all_of(procs))
    procs = [sim.process(client(fast, 5 * MS, t)) for t in range(4)]
    sim.run_until(sim.all_of(procs))
    print(f"  base max {base.max_ms():6.1f} ms ({runtime.collections} GCs)"
          f"  ->  MittGC max {fast.max_ms():5.2f} ms "
          f"({mitt.rejected} rejections)\n")


def smr_demo():
    print("== 3. SMR band cleaning ==")
    sim = Simulator(seed=3)
    smr = SmrDisk(sim, SmrParams(jitter_frac=0.0, hiccup_prob=0.0,
                                 persistent_cache_bytes=32 * MB,
                                 band_bytes=8 * MB))
    model = profile_disk(lambda s: Disk(s, DiskParams(
        jitter_frac=0.0, hiccup_prob=0.0)))
    os_ = OS(sim, smr, NoopScheduler(sim, smr),
             predictor=MittSmr(model, smr))
    rec, ebusy = LatencyRecorder("reads"), [0]

    def tenant():
        rng = sim.rng("smr")
        for i in range(400):
            if i % 3 == 0:
                # A neighbour's random writes fill the persistent cache...
                req = BlockRequest(IoOp.WRITE,
                                   rng.randrange(0, 900 * GB)
                                   // 4096 * 4096, 256 * KB)
                os_.submit_raw(req)
            # ...while latency-sensitive reads carry a 25 ms deadline.
            start = sim.now
            result = yield from os_.read(0, rng.randrange(0, 900 * GB)
                                         // 4096 * 4096, 4 * KB,
                                         deadline=25 * MS)
            if is_ebusy(result):
                ebusy[0] += 1
                yield 300.0  # replica failover
            else:
                rec.add(sim.now - start)
            yield 5 * MS

    proc = sim.process(tenant())
    sim.run_until(proc)
    print(f"  bands cleaned: {smr.bands_cleaned}, reads rejected during "
          f"cleaning: {ebusy[0]}")
    print(f"  accepted reads: p99 {rec.p(99):5.1f} ms "
          f"(cleaning sweeps are {400:.0f} ms each)\n")


def autodeadline_demo():
    print("== 4. Auto-tuned deadlines (§8.1) ==")
    from repro.experiments.common import (apply_ec2_noise,
                                          build_disk_cluster,
                                          make_strategy, run_clients)
    from repro.workloads import Ec2NoiseModel
    sim = Simulator(seed=4)
    env = build_disk_cluster(sim, 10)
    apply_ec2_noise(env, Ec2NoiseModel("disk"), 60 * SEC)
    controller = DeadlineController(2 * MS, target_rate=0.05, window=100)
    strategy = make_strategy("mittos", env.cluster, deadline_us=None,
                             controller=controller)
    rec = run_clients(env, strategy, 10, 400, think_time_us=4 * MS,
                      limit_us=60 * SEC)
    trail = " -> ".join(f"{d / MS:.1f}" for d in
                        controller.adjustments[:3]
                        + controller.adjustments[-2:])
    print(f"  started at 2.0 ms (absurdly strict); trajectory (ms): "
          f"{trail}")
    print(f"  settled at {controller.deadline_us / MS:.1f} ms; p95 "
          f"{rec.p(95):.1f} ms (cumulative failover rate "
          f"{100 * strategy.failovers / max(1, len(rec)):.1f}% includes "
          "the strict warm-up)")


if __name__ == "__main__":
    vmm_demo()
    gc_demo()
    smr_demo()
    autodeadline_demo()

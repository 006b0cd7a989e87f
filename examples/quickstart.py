#!/usr/bin/env python
"""Quickstart: the fast-rejecting SLO-aware interface in 60 lines.

Builds one storage node (disk + CFQ + MittCFQ), makes the disk busy with a
noisy neighbour, and issues ``read(..., deadline)`` calls.  Watch the OS
return EBUSY in microseconds instead of letting the read stall behind the
neighbour's IO — the paper's Figure 2 flow.

Run:  python examples/quickstart.py
"""

from repro._units import GB, KB, MS, SEC, to_ms
from repro.devices import Disk
from repro.devices.disk_profile import profile_disk
from repro.errors import is_ebusy
from repro.kernel import CfqScheduler, OS
from repro.mittos import MittCfq
from repro.sim import Simulator
from repro.workloads import NoiseInjector


def main():
    sim = Simulator(seed=1)

    # The storage stack: disk, CFQ scheduler, MittCFQ predictor.
    disk = Disk(sim)
    scheduler = CfqScheduler(sim, disk)
    model = profile_disk(lambda s: Disk(s))  # one-time device profiling
    os_ = OS(sim, disk, scheduler, predictor=MittCfq(model))
    print(f"profiled disk model: {model}")

    # A noisy neighbour shows up after one second.
    injector = NoiseInjector(sim, os_, span_bytes=900 * GB)
    sim.schedule(1 * SEC, lambda: injector.busy_window(
        1 * SEC, concurrency=4))

    def client():
        rng = sim.rng("client")
        for i in range(40):
            offset = rng.randrange(0, 900 * GB) // 4096 * 4096
            start = sim.now
            result = yield from os_.read(0, offset, 4 * KB, pid=1,
                                         deadline=20 * MS)
            elapsed = sim.now - start
            stamp = f"t={to_ms(sim.now):8.1f}ms"
            if is_ebusy(result):
                print(f"{stamp}  EBUSY after {elapsed:6.1f}us "
                      "-> failover to a replica, no waiting")
            else:
                print(f"{stamp}  read ok in {to_ms(elapsed):5.2f}ms")
            yield 100 * MS

    sim.process(client())
    sim.run()
    print(f"\nEBUSY returned: {os_.ebusy_returned} "
          f"(rejections predicted, IOs never queued)")


if __name__ == "__main__":
    main()

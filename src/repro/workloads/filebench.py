"""Filebench-like macrobenchmark personalities (§7.8.1).

The paper colocates MongoDB with filebench's fileserver, varmail, and
webserver personalities on different nodes to create *different levels* of
noise.  We model each personality as a closed-loop IO mix with the defining
traits: fileserver does large mixed read/write, varmail does many small
sync-ish writes, webserver does many medium reads.
"""

from repro._units import KB, MB
from repro.devices.request import BlockRequest, IoClass, IoOp

#: Thread counts / rates tuned so the three personalities create clearly
#: *different levels* of noise (§7.8.1): fileserver saturates its disk in
#: bursts, webserver keeps moderate pressure, varmail stays light.
_PERSONALITIES = {
    "fileserver": dict(threads=2, read_fraction=0.5,
                       sizes=(64 * KB, 1 * MB), gap_us=25_000.0),
    "varmail": dict(threads=2, read_fraction=0.3,
                    sizes=(4 * KB, 16 * KB), gap_us=20_000.0),
    "webserver": dict(threads=2, read_fraction=0.95,
                      sizes=(16 * KB, 64 * KB), gap_us=30_000.0),
}


def personalities():
    return sorted(_PERSONALITIES)


def run_filebench(sim, os, personality, span_bytes, until_us, pid_base=7000):
    """Run one personality against a node's OS; returns its processes."""
    if personality not in _PERSONALITIES:
        raise ValueError(f"unknown filebench personality: {personality}")
    spec = _PERSONALITIES[personality]
    rng = sim.rng(f"filebench/{personality}/{pid_base}")

    def worker(pid):
        while sim.now < until_us:
            is_read = rng.random() < spec["read_fraction"]
            op = IoOp.READ if is_read else IoOp.WRITE
            size = rng.choice(spec["sizes"])
            offset = rng.randrange(0, max(1, span_bytes - size))
            offset -= offset % (4 * KB)
            yield os.submit_raw(BlockRequest(
                op, offset, size, pid=pid, ioclass=IoClass.BE, priority=5))
            yield rng.expovariate(1.0 / spec["gap_us"])

    return [sim.process(worker(pid_base + t))
            for t in range(spec["threads"])]

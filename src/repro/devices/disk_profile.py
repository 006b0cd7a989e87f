"""Disk latency profiling — the predictor's white-box device model (§4.1, §A).

The paper profiles the target disk offline ("our one-time profiling takes 11
hours"), measuring latency versus IO size and jump distance, then fits the
relationship with linear regression.  We do the same against the *simulated*
disk: issue probe IOs on an idle disk at controlled distances/sizes, record
latencies, and regress

    latency = seek_base + seek_per_gb * distance_gb + transfer_per_kb * kb.

The fitted :class:`DiskLatencyModel` is what MittNoop/MittCFQ use for
``T_processNewIO``; it deliberately knows nothing about the disk's jitter or
hiccups, which is exactly the model error the diff calibration absorbs.
"""

import numpy as np

from repro._units import GB, KB
from repro.devices.request import BlockRequest, IoOp


class DiskLatencyModel:
    """Fitted seek/transfer model used for service-time prediction."""

    def __init__(self, seek_base_us, seek_per_gb_us, transfer_per_kb_us):
        self.seek_base_us = seek_base_us
        self.seek_per_gb_us = seek_per_gb_us
        self.transfer_per_kb_us = transfer_per_kb_us

    def seek_cost(self, from_offset, to_offset):
        """Appendix A's ``seekCost(X, Y)`` (without the transfer term)."""
        distance_gb = abs(to_offset - from_offset) / GB
        return self.seek_base_us + self.seek_per_gb_us * distance_gb

    def service_time(self, prev_offset, req):
        """Predicted ``T_processNewIO`` for ``req`` with head at prev."""
        return (self.seek_cost(prev_offset, req.offset)
                + self.transfer_per_kb_us * (req.size / KB))

    def __repr__(self):
        return (f"DiskLatencyModel(base={self.seek_base_us:.1f}us, "
                f"per_gb={self.seek_per_gb_us:.3f}us, "
                f"per_kb={self.transfer_per_kb_us:.3f}us)")


def profile_disk(disk_factory, tries=3, distance_points=24, size_points=6,
                 seed=42):
    """Profile a disk model by measurement and linear regression.

    ``disk_factory(sim)`` must build a fresh disk attached to ``sim``; probing
    fresh instances keeps the profiled disk independent of live traffic, like
    the paper's offline profiling.  Returns a :class:`DiskLatencyModel`.

    Profiling is invisible to the caller's request numbering: the probe
    simulator resets the shared req-id counter, so the caller's watermark
    is restored afterwards — otherwise a run that triggers (cached, so
    first-in-process) profiling numbers its requests differently from a
    warm run, and same-seed trace digests diverge.
    """
    from repro.devices.request import req_id_watermark, reset_req_ids
    from repro.sim import Simulator

    mark = req_id_watermark()
    sim = Simulator(seed=seed)
    disk = disk_factory(sim)
    capacity = disk.params.capacity_bytes

    rows = []      # (distance_gb, size_kb)
    latencies = []

    def probe(offset, size):
        req = BlockRequest(IoOp.READ, offset, size)
        req.submit_time = sim.now
        start_head = disk.head_offset
        disk.submit(req)
        sim.run()
        rows.append((abs(offset - start_head) / GB, size / KB))
        latencies.append(req.complete_time - req.submit_time)

    rng = np.random.default_rng(seed)
    for _ in range(tries):
        for i in range(distance_points):
            distance = int(capacity * (i + 1) / (distance_points + 1))
            base = int(rng.integers(0, max(1, capacity - distance)))
            # Position the head deterministically, then jump `distance`.
            probe(base, 4 * KB)
            probe(base + distance, 4 * KB)
        for i in range(size_points):
            size = 4 * KB * (4 ** i)          # 4 KB .. 4 MB
            probe(int(rng.integers(0, capacity - size)), size)

    x = np.array(rows)
    y = np.array(latencies)
    design = np.column_stack([np.ones(len(x)), x[:, 0], x[:, 1]])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    base, per_gb, per_kb = coef
    reset_req_ids(mark)
    return DiskLatencyModel(max(base, 0.0), max(per_gb, 0.0),
                            max(per_kb, 0.0))

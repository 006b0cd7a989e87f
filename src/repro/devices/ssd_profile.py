"""SSD profiling — MittSSD's white-box timing model (§4.3).

The paper obtains chip/channel constants from the vendor NAND specification
or by profiling: concurrent page reads to one chip measure chip-level
queueing; concurrent reads to chips behind one channel measure the channel
delay; a one-time write sweep over a block recovers the lower/upper page
program pattern.  We reproduce that profiling procedure against the simulated
device so the predictor's constants are *measured*, not copied.
"""

from repro.devices.request import BlockRequest, IoOp
from repro.devices.ssd import SsdGeometry, program_pattern


class SsdLatencyModel:
    """Fitted timing constants used by the MittSSD predictor."""

    def __init__(self, page_read_us, channel_xfer_us, program_us, erase_us):
        self.page_read_us = page_read_us
        self.channel_xfer_us = channel_xfer_us
        #: Per-block program-time array (the paper stores exactly this,
        #: one 512-item array shared by every block).
        self.program_us = program_us
        self.erase_us = erase_us

    @classmethod
    def from_spec(cls, geometry=None):
        """Build straight from the vendor spec (geometry constants)."""
        geo = geometry or SsdGeometry()
        return cls(geo.page_read_us, geo.channel_xfer_us,
                   list(geo.program_us), geo.erase_us)

    def __repr__(self):
        return (f"SsdLatencyModel(read={self.page_read_us:.0f}us, "
                f"chan={self.channel_xfer_us:.0f}us, "
                f"erase={self.erase_us:.0f}us)")


def profile_ssd(ssd_factory, probes_per_point=32, seed=7):
    """Measure chip read time and channel delay on an idle simulated SSD.

    ``ssd_factory(sim)`` builds a fresh device.  Returns an
    :class:`SsdLatencyModel` with *measured* read/channel constants plus the
    spec program pattern (tests exercise the write sweep separately to keep
    profiling fast).

    Like ``profile_disk``, restores the caller's req-id watermark so the
    probe runs never shift the calling process's request numbering.
    """
    from repro.devices.request import req_id_watermark, reset_req_ids
    from repro.sim import Simulator

    mark = req_id_watermark()
    sim = Simulator(seed=seed)
    ssd = ssd_factory(sim)
    geo = ssd.geometry
    page = geo.page_size

    def run_reads(lpns):
        """Submit concurrent single-page reads; return their latencies."""
        start = sim.now
        reqs = []
        for lpn in lpns:
            req = BlockRequest(IoOp.READ, lpn * page, page)
            req.submit_time = start
            ssd.submit(req)
            reqs.append(req)
        sim.run()
        return [r.complete_time - r.submit_time for r in reqs]

    # Chip-level read time: serial single-page reads to one chip (lpn 0
    # maps to chip 0 while unwritten).
    samples = []
    for _ in range(probes_per_point):
        samples.extend(run_reads([0]))
    page_read = sum(samples) / len(samples)

    # Channel delay: lpns 0 and 1 map to chips 0 and 1, both on channel 0
    # when chips_per_channel > 1.  The pair's slower read finishes one
    # channel-transfer later than a lone read would.
    deltas = []
    for _ in range(probes_per_point):
        pair = run_reads([0, 1])
        deltas.append(max(pair) - page_read)
    channel = max(0.0, sum(deltas) / len(deltas))

    reset_req_ids(mark)
    return SsdLatencyModel(page_read, channel,
                           program_pattern(geo.pages_per_block),
                           geo.erase_us)

"""Synthetic block-level traces standing in for the MSR Windows-server
traces (§7.6).

The paper replays five production traces (DAPPS, DTRS, EXCH, LMBE, TPCC
from the SNIA IOTTA repository) to test prediction accuracy.  Those traces
are not redistributable here, so we synthesise five trace *families* with
the workload characteristics the IISWC'08 characterisation reports —
differing arrival burstiness, read/write mix, IO sizes, and spatial
locality — which is what exercises the predictors.

=======  ==============================================================
Family   Character
=======  ==============================================================
DAPPS    dev-apps server: moderate rate, mixed sizes, mild locality
DTRS     developer tools release: read-heavy, bursty, sequential runs
EXCH     Exchange mail: write-heavy, small IOs, very bursty
LMBE     LiveMaps back-end: large reads, high rate, strong locality
TPCC     OLTP: small random IOs, steady high rate, uniform spread
=======  ==============================================================
"""

from repro._units import GB, KB, MS, SEC
from repro.devices.request import BlockRequest, IoOp


class TraceSpec:
    """Parameters of one synthetic trace family."""

    def __init__(self, name, iops, read_fraction, sizes, size_weights,
                 burstiness, locality, sequential_fraction):
        self.name = name
        self.iops = iops
        self.read_fraction = read_fraction
        self.sizes = sizes
        self.size_weights = size_weights
        #: 0 = Poisson arrivals; larger = heavier on/off burstiness.
        self.burstiness = burstiness
        #: Fraction of IOs confined to a hot region.
        self.locality = locality
        self.sequential_fraction = sequential_fraction


TRACE_FAMILIES = {
    "DAPPS": TraceSpec("DAPPS", iops=120, read_fraction=0.56,
                       sizes=(4 * KB, 16 * KB, 64 * KB),
                       size_weights=(0.5, 0.3, 0.2), burstiness=0.3,
                       locality=0.4, sequential_fraction=0.2),
    "DTRS": TraceSpec("DTRS", iops=150, read_fraction=0.78,
                      sizes=(4 * KB, 32 * KB, 128 * KB),
                      size_weights=(0.4, 0.4, 0.2), burstiness=0.6,
                      locality=0.3, sequential_fraction=0.5),
    "EXCH": TraceSpec("EXCH", iops=180, read_fraction=0.33,
                      sizes=(4 * KB, 8 * KB),
                      size_weights=(0.7, 0.3), burstiness=0.8,
                      locality=0.5, sequential_fraction=0.1),
    "LMBE": TraceSpec("LMBE", iops=130, read_fraction=0.85,
                      sizes=(64 * KB, 256 * KB),
                      size_weights=(0.6, 0.4), burstiness=0.4,
                      locality=0.7, sequential_fraction=0.4),
    "TPCC": TraceSpec("TPCC", iops=250, read_fraction=0.65,
                      sizes=(4 * KB, 8 * KB),
                      size_weights=(0.8, 0.2), burstiness=0.1,
                      locality=0.1, sequential_fraction=0.0),
}


class TraceRecord:
    __slots__ = ("time", "op", "offset", "size")

    def __init__(self, time, op, offset, size):
        self.time = time
        self.op = op
        self.offset = offset
        self.size = size


def generate_trace(spec, rng, duration_us, span_bytes=900 * GB,
                   rate_scale=1.0):
    """Synthesize a trace (sorted by time) for one family.

    ``rate_scale`` re-rates intensity, as the paper re-rates disk traces
    128x for SSD tests.
    """
    records = []
    iops = spec.iops * rate_scale
    mean_gap = SEC / iops
    hot_span = max(4 * KB, int(span_bytes * 0.05))
    t = 0.0
    last_offset = 0
    burst_left = 0
    while t < duration_us:
        if burst_left == 0 and rng.random() < spec.burstiness * 0.05:
            burst_left = rng.randint(5, 40)   # an on-period burst
        if burst_left > 0:
            burst_left -= 1
            gap = rng.expovariate(1.0 / (mean_gap * 0.1))
        else:
            gap = rng.expovariate(1.0 / mean_gap)
        t += gap
        if t >= duration_us:
            break
        op = IoOp.READ if rng.random() < spec.read_fraction else IoOp.WRITE
        size = rng.choices(spec.sizes, weights=spec.size_weights)[0]
        if rng.random() < spec.sequential_fraction:
            offset = last_offset
        elif rng.random() < spec.locality:
            offset = rng.randrange(0, hot_span)
        else:
            offset = rng.randrange(0, span_bytes - size)
        offset -= offset % (4 * KB)
        last_offset = offset + size
        records.append(TraceRecord(t, op, offset, size))
    return records


def replay_trace(sim, os, records, deadline_us=None, on_complete=None):
    """Open-loop replay of a trace into an OS as pid 500 (accuracy tests,
    §7.6).

    When ``deadline_us`` is given each IO is tagged with an absolute
    deadline so a shadow-mode predictor can be scored; ``on_complete(req)``
    observes each completion.  Returns the replay process.
    """
    def _replay():
        for rec in records:
            delay = rec.time - sim.now
            if delay > 0:
                yield delay
            req = BlockRequest(rec.op, rec.offset, rec.size, pid=500)
            if deadline_us is not None:
                req.abs_deadline = sim.now + deadline_us
                if os.predictor is not None:
                    os.predictor.admit(req, deadline_us)
            if on_complete is not None:
                req.add_callback(on_complete)
            os.scheduler.submit(req)
        return len(records)

    return sim.process(_replay())

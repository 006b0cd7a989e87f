"""Rotating-disk model with an SSTF device queue.

The disk is the contended resource behind MittNoop/MittCFQ (§4.1-4.2).  Its
ground-truth service time is a seek/transfer cost model:

    service(prev, req) = seek_base
                       + seek_per_gb * |req.offset - prev_offset| (in GB)
                       + transfer_per_kb * req.size (in KB)

perturbed by a small multiplicative jitter plus rare "hiccup" outliers, so
that a predictor built from profiled averages has a realistic, non-zero error
to calibrate away (paper §4.1's diff calibration).

Like real SATA disks, the device keeps its own queue (NCQ) that it serves in
shortest-seek-time-first order — invisible reordering that the paper's
appendix models explicitly (``sstfTime``).
"""

from repro._units import GB, KB, MS, US
from repro.devices.request import IoOp
from repro.obs.events import IO_SERVICE_START, request_fields


class DiskParams:
    """Physical parameters of the simulated disk."""

    def __init__(self, capacity_bytes=1000 * GB, seek_base_us=2000.0,
                 seek_per_gb_us=12.0, transfer_per_kb_us=10.0,
                 write_penalty=1.1, queue_depth=4, jitter_frac=0.03,
                 hiccup_prob=0.002, hiccup_range_us=(5 * MS, 15 * MS)):
        # queue_depth: NCQ slots the OS keeps in flight.  CFQ deliberately
        # keeps this small for rotational disks so the scheduler (and hence
        # MittOS's wait model) retains control over service order.
        self.capacity_bytes = capacity_bytes
        self.seek_base_us = seek_base_us
        self.seek_per_gb_us = seek_per_gb_us
        self.transfer_per_kb_us = transfer_per_kb_us
        #: Writes pay a small settle penalty over reads.
        self.write_penalty = write_penalty
        self.queue_depth = queue_depth
        #: Std-dev of the multiplicative gaussian jitter on service time.
        self.jitter_frac = jitter_frac
        #: Probability of a firmware hiccup adding a uniform extra delay.
        self.hiccup_prob = hiccup_prob
        self.hiccup_range_us = hiccup_range_us


class Disk:
    """A single-spindle disk serving its device queue SSTF.

    The IO scheduler above dispatches into :meth:`submit` only while
    :meth:`has_room` — mirroring the block layer feeding NCQ slots.
    """

    def __init__(self, sim, params=None, name="disk"):
        self.sim = sim
        self.bus = sim.bus
        self.params = params or DiskParams()
        self.name = name
        self._rng = sim.rng(f"disk/{name}")
        self._queue = []          # newly arrived, waiting for the next batch
        self._batch = []          # frozen batch being served SSTF
        self._current = None      # request in service
        self._head = 0            # byte offset of the head after last IO
        self._drain_callbacks = []
        #: Total IOs completed (for experiments' sanity checks).
        self.completed = 0
        #: Fail-slow hooks (FaultPlane): a multiplier on every true service
        #: time and an optional per-IO extra-latency callable (GC pauses,
        #: media retries).  Predictors keep using the *clean* model, so a
        #: device storm shows up as prediction error — the gray-failure
        #: setting the fault plane is built to study.
        self.latency_scale = 1.0
        self.fault_latency_extra = None

    # -- scheduler-facing API ------------------------------------------------
    @property
    def in_device(self):
        """IOs inside the device (queued + in service)."""
        return (len(self._queue) + len(self._batch)
                + (1 if self._current is not None else 0))

    def has_room(self):
        return self.in_device < self.params.queue_depth

    def add_drain_callback(self, fn):
        """``fn()`` runs whenever a slot frees up."""
        self._drain_callbacks.append(fn)

    def submit(self, req):
        """Accept a request into the device queue."""
        if not self.has_room():
            raise RuntimeError("device queue overflow (scheduler bug)")
        req.dispatch_time = self.sim.now
        self._queue.append(req)
        if self._current is None:
            self._start_next()

    def pending_requests(self):
        """Snapshot of IOs inside the device (for MittOS wait estimates)."""
        out = list(self._batch) + list(self._queue)
        if self._current is not None:
            out.insert(0, self._current)
        return out

    @property
    def head_offset(self):
        return self._head

    # -- ground truth service model -----------------------------------------
    def model_service_time(self, prev_offset, req):
        """Noise-free service time of ``req`` given head at ``prev_offset``."""
        p = self.params
        distance_gb = abs(req.offset - prev_offset) / GB
        t = (p.seek_base_us + p.seek_per_gb_us * distance_gb
             + p.transfer_per_kb_us * (req.size / KB))
        if req.op is IoOp.WRITE:
            t *= p.write_penalty
        return t

    def _true_service_time(self, req):
        base = self.model_service_time(self._head, req)
        t = base * max(0.1, self._rng.gauss(1.0, self.params.jitter_frac))
        if self._rng.random() < self.params.hiccup_prob:
            lo, hi = self.params.hiccup_range_us
            t += self._rng.uniform(lo, hi)
        t *= self.latency_scale
        if self.fault_latency_extra is not None:
            t += self.fault_latency_extra()
        return max(t, 1 * US)

    # -- internal service loop ------------------------------------------------
    def _start_next(self):
        """Serve the frozen batch SSTF; refreeze when it drains.

        Batched elevator service bounds starvation the way real NCQ
        firmware does: a newly arrived IO can overtake at most the IOs of
        one in-flight batch, never an unbounded stream — which is also what
        makes admission-time wait prediction well-posed (§4.1's accuracy).
        """
        if self._current is not None:
            return  # guard against re-entrant starts (callbacks may submit)
        while self._batch or self._queue:
            if not self._batch:
                self._batch, self._queue = self._queue, []
            # SSTF pick by hand: batches are a few entries deep (NCQ-sized),
            # where an explicit scan beats min()'s per-dispatch key lambda.
            batch = self._batch
            head = self._head
            best = 0
            best_dist = abs(batch[0].offset - head)
            for i in range(1, len(batch)):
                dist = abs(batch[i].offset - head)
                if dist < best_dist:
                    best, best_dist = i, dist
            req = batch.pop(best)
            if req.cancelled:
                continue
            self._current = req
            req.service_start = self.sim.now
            if self.bus.recorder.active:
                self.bus.record(IO_SERVICE_START,
                                dict(request_fields(req), device=self.name))
            service = self._true_service_time(req)
            self.sim.schedule(service, self._complete, req)
            return

    def _complete(self, req):
        self._head = req.end_offset
        self._current = None
        self.completed += 1
        # Refill from the scheduler and start the next IO *before* firing
        # completion callbacks: those callbacks run client code that may
        # submit new IOs re-entrantly.
        for fn in self._drain_callbacks:
            fn()
        self._start_next()
        req.finish(self.sim.now)

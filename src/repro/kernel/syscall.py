"""The OS facade: the paper's SLO-aware syscalls (Figure 2).

``read(..., deadline)`` is the new interface: one extra argument on the
existing read path.  The flow matches §3.2: the request enters a resource
queue; MittOS checks whether the deadline can be met; on predicted violation
it instantly returns EBUSY *without queueing the IO*; otherwise the IO runs
and may still be cancelled later (MittCFQ's bump-back handling), in which
case EBUSY arrives when the violation becomes known.

``addrcheck(addr-range, deadline)`` supports mmap-ed files (§4.4): a fast
page-table walk, with the deadline propagated to the IO-layer predictor when
pages are missing.

Writes are buffered (memtable/NVRAM absorb) and flushed in the background at
Idle priority — the reason user-facing write latency is flat (§7.8.6).

``read`` and ``write`` are sub-generators that the caller's process drives
with ``yield from``: a page-cache hit, a fast EBUSY or a buffered write
waits out its delay, and the only event on the read path is a device IO's
completion, the one :meth:`OS.submit_raw` returns.

Observability: the counters ``reads``, ``writes``, ``ebusy_returned`` and
``addrcheck_ebusy`` are plain attributes, bumped where the matching
``os.read`` / ``os.write`` / ``os.ebusy`` event is recorded (EBUSY events
carry a ``probe`` flag so addrcheck rejections are distinguishable from
read-path ones).  When a recorder is active, every read outcome also
records a ``span.request`` event whose stages provably sum to the
end-to-end latency the caller saw.
"""

from repro._units import MS
from repro.devices.request import BlockRequest, IoClass, IoOp
from repro.errors import EBusy
from repro.obs.events import (OS_EBUSY, OS_READ, OS_WRITE, SPAN_REQUEST,
                              request_fields)
from repro.obs.spans import cache_hit_spans, ebusy_spans, request_spans

#: Fastest device IO assumed where no predictor models the device: a
#: deadline below it means the caller expected memory (``addrcheck``
#: without a predictor, and a MittCache with no IO predictor under it).
NO_MODEL_MIN_IO_US = 1 * MS


class OsParams:
    """Host-OS cost constants (paper §3.3: syscall+EBUSY < 5 µs)."""

    def __init__(self, syscall_us=2.0, ebusy_us=2.0, addrcheck_us=0.082,
                 memory_read_base_us=15.0, memory_read_per_page_us=1.5,
                 nvram_write_us=30.0, flush_threshold_bytes=8 << 20,
                 flush_chunk_bytes=1 << 20, failover_hop_us=300.0):
        self.syscall_us = syscall_us
        self.ebusy_us = ebusy_us
        self.addrcheck_us = addrcheck_us
        self.memory_read_base_us = memory_read_base_us
        self.memory_read_per_page_us = memory_read_per_page_us
        self.nvram_write_us = nvram_write_us
        self.flush_threshold_bytes = flush_threshold_bytes
        self.flush_chunk_bytes = flush_chunk_bytes
        #: T_hop — the one-hop failover allowance in the EBUSY test.
        self.failover_hop_us = failover_hop_us


class ReadResult:
    """Success value of a completed read."""

    __slots__ = ("cache_hit", "latency", "predicted_wait")

    def __init__(self, cache_hit, latency, predicted_wait=None):
        self.cache_hit = cache_hit
        self.latency = latency
        self.predicted_wait = predicted_wait

    def __repr__(self):
        where = "cache" if self.cache_hit else "device"
        return f"<ReadResult {where} {self.latency:.1f}us>"


class OS:
    """One node's storage stack: cache above scheduler above device."""

    def __init__(self, sim, device, scheduler, cache=None, predictor=None,
                 params=None):
        self.sim = sim
        self.bus = sim.bus
        self.device = device
        self.scheduler = scheduler
        self.cache = cache
        #: MittOS predictor for the device queue (None = vanilla Linux).
        self.predictor = predictor
        #: Optional SLO-control admission guard (``AdmissionGuard.attach``
        #: installs one); None = no backpressure, byte-identical traces.
        self.admission = None
        self.params = params or OsParams()
        self._dirty_bytes = 0
        self._flusher_running = False
        self._flush_offset = 0
        self.reads = 0
        self.writes = 0
        self.ebusy_returned = 0
        #: The addrcheck-probe subset of ``ebusy_returned``.
        self.addrcheck_ebusy = 0
        if predictor is not None:
            predictor.attach(self)

    def _note_ebusy(self, probe, predicted_wait=None):
        self.ebusy_returned += 1
        if probe:
            self.addrcheck_ebusy += 1
        bus = self.bus
        if bus.recorder.active:
            bus.record(OS_EBUSY, {"probe": probe,
                                  "predicted_wait": predicted_wait})

    def _fast_reject(self, outcome, file_id, pid, predicted_wait=None):
        """Sub-generator: EBUSY after the syscall's ``ebusy_us``, without
        queueing any IO.  The caller has already noted the EBUSY."""
        ebusy_us = self.params.ebusy_us
        yield ebusy_us
        bus = self.bus
        if bus.recorder.active:
            bus.record(SPAN_REQUEST, {
                "outcome": outcome, "file": file_id, "pid": pid,
                "total": ebusy_us, "stages": ebusy_spans(ebusy_us)})
        return EBusy(predicted_wait)

    # -- reads -----------------------------------------------------------
    def read(self, file_id, offset, size, pid=0, ioclass=IoClass.BE,
             priority=4, deadline=None):
        """SLO-aware read as a generator: returns ReadResult or EBUSY.

        The caller drives it with ``yield from`` inside its own process
        (or wraps it in ``sim.process`` for background IO).  Only a
        device read waits on an event, the one :meth:`submit_raw`
        returns; a cache hit or a fast EBUSY just waits out its delay.
        """
        # A plain function, not a generator function: the repo benchmark
        # counts reads as calls to it, and a profiler counts every resume
        # of a generator function as one more call.
        return self._read(file_id, offset, size, pid, ioclass, priority,
                          deadline)

    def _read(self, file_id, offset, size, pid, ioclass, priority,
              deadline):
        self.reads += 1
        bus = self.bus
        recording = bus.recorder.active
        if recording:
            bus.record(OS_READ, {"file": file_id, "offset": offset,
                                 "size": size, "pid": pid,
                                 "deadline": deadline})
        start = self.sim.now

        if (self.admission is not None
                and not self.admission.admit(pid, ioclass, priority)):
            # Backpressure shed: the same cheap fast-reject as a predicted
            # deadline violation, issued before any cache or IO work.
            self._note_ebusy(False)
            return (yield from self._fast_reject("shed", file_id, pid))

        if self.cache is not None and self.cache.touch(file_id, offset, size):
            latency = self._memory_read_time(offset, size)
            yield latency
            if recording:
                bus.record(SPAN_REQUEST, {
                    "outcome": "cache-hit", "file": file_id, "pid": pid,
                    "total": latency,
                    "stages": cache_hit_spans(self.params.syscall_us,
                                              latency)})
            return ReadResult(True, latency)

        # Cache miss (or no cache): the IO layer serves it.
        req = BlockRequest(IoOp.READ, offset, size, pid=pid, ioclass=ioclass,
                           priority=priority)
        if deadline is not None:
            req.abs_deadline = start + deadline
        req.tag["file_id"] = file_id

        if deadline is not None and self.predictor is not None:
            verdict = self.predictor.admit(req, deadline)
            if not verdict.accept:
                wait = verdict.predicted_wait
                self._note_ebusy(False, wait)
                if self.cache is not None:
                    # Fairness caveat (§4.4): keep populating the cache.
                    self.cache.note_ebusy_swapin(file_id, offset, size)
                return (yield from self._fast_reject("ebusy", file_id, pid,
                                                     wait))

        yield self.submit_raw(req)
        now = self.sim.now
        if req.cancelled:
            # Late rejection (MittCFQ bump-back): EBUSY after the fact.
            self._note_ebusy(False, req.predicted_wait)
            if bus.recorder.active:
                bus.record(SPAN_REQUEST, dict(
                    request_fields(req), outcome="late-cancel",
                    total=now - start, stages=request_spans(req, now)))
            return EBusy(req.predicted_wait)
        if self.cache is not None:
            self.cache.insert(file_id, offset, size)
        if bus.recorder.active:
            bus.record(SPAN_REQUEST, dict(
                request_fields(req), outcome="complete",
                total=now - start, stages=request_spans(req, now)))
        return ReadResult(False, now - start, req.predicted_wait)

    def _memory_read_time(self, offset, size):
        # Count the pages of the *actual* byte range: an unaligned read
        # that straddles a page boundary touches one page more than a
        # same-size aligned read.
        pages = 1
        if self.cache is not None:
            page_size = self.cache.page_size
            pages += (offset + size - 1) // page_size - offset // page_size
        params = self.params
        return (params.syscall_us + params.memory_read_base_us
                + params.memory_read_per_page_us * pages)

    # -- addrcheck (mmap support, §4.4) ------------------------------------
    def addrcheck(self, file_id, offset, size, deadline):
        """Synchronous residency + deadline check; returns True or EBUSY.

        True means dereferencing the mmap-ed range will not violate the
        deadline (resident, or the predicted fill IO fits the deadline).
        """
        if self.cache is None:
            raise RuntimeError("addrcheck requires a page cache")
        if self.cache.resident(file_id, offset, size):
            return True
        # Propagate the deadline to the IO layer (§4.4): EBUSY if even the
        # fastest possible device IO misses it, or the predictor says busy.
        if self.predictor is not None:
            probe = BlockRequest(IoOp.READ, offset, size)
            probe.abs_deadline = self.sim.now + deadline
            verdict = self.predictor.admit(probe, deadline, probe_only=True)
            if not verdict.accept:
                self._note_ebusy(True, verdict.predicted_wait)
                self.cache.note_ebusy_swapin(file_id, offset, size)
                return EBusy(verdict.predicted_wait)
            return True
        if deadline < NO_MODEL_MIN_IO_US:
            self._note_ebusy(True)
            self.cache.note_ebusy_swapin(file_id, offset, size)
            return EBusy()
        return True

    # -- writes (buffered, §7.8.6) -----------------------------------------
    def write(self, file_id, offset, size, pid=0):
        """Buffered write as a generator: absorbed by memory/NVRAM after
        ``nvram_write_us`` (returns True), flushed in the background."""
        self.writes += 1
        bus = self.bus
        if bus.recorder.active:
            bus.record(OS_WRITE, {"file": file_id, "offset": offset,
                                  "size": size, "pid": pid})
        self._dirty_bytes += size
        if (self._dirty_bytes >= self.params.flush_threshold_bytes
                and not self._flusher_running):
            self._flusher_running = True
            self.sim.schedule(0.0, self._flush_some)
        yield self.params.nvram_write_us
        return True

    def _flush_some(self):
        if self._dirty_bytes <= 0:
            self._flusher_running = False
            return
        chunk = min(self._dirty_bytes, self.params.flush_chunk_bytes)
        self._dirty_bytes -= chunk
        req = BlockRequest(IoOp.WRITE, self._flush_offset, chunk,
                           pid=-1, ioclass=IoClass.IDLE, priority=7)
        self._flush_offset = (self._flush_offset + chunk) % (1 << 38)
        req.add_callback(lambda _: self._flush_some())
        self.scheduler.submit(req)

    # -- direct submission (noise, workloads, device reads) ---------------
    def submit_raw(self, req):
        """Queue ``req`` below the cache and SLO checks; returns an event
        that succeeds with ``req`` once it completes or is cancelled.

        The one way to wait on a block IO: ``read`` yields it for a device
        read, and competing-tenant workloads yield it between their IOs.
        """
        done = self.sim.event()
        req.add_callback(done.succeed)
        self.scheduler.submit(req)
        return done

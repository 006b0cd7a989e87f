"""The noise injector: emulated noisy neighbours (§7).

The paper runs a multi-threaded noise injector on replica nodes "whose job
is to emulate busy neighbors at the right timing".  Ours is a set of tenant
processes submitting competing IO straight into a node's OS with
``OS.submit_raw``, each yielding the event it returns until its IO is done:

* disk noise — concurrent random reads at a configurable ionice class
  (Figure 4a/4b use lower/higher priority than the store's IOs), or timed
  busy windows built from concurrent 1 MB reads (the Figure 5 EC2 replay:
  "a 30 ms latency [target] ... inject two concurrent 1MB reads, where each
  will add 12ms delay");
* SSD noise — a stream of 64 KB writes (Figure 4c);
* cache noise — evicting a fraction of cached pages (Figure 4d's
  posix_fadvise emulation).
"""

from repro._units import KB, MB
from repro.devices.request import BlockRequest, IoClass, IoOp

#: pid namespace for noisy tenants (distinct CFQ nodes from the store).
NOISE_PID_BASE = 9000


class NoiseInjector:
    """Competing-tenant IO generator bound to one node's OS."""

    def __init__(self, sim, os, span_bytes, name="noise"):
        self.sim = sim
        self.os = os
        #: Offset range the noise IOs land in.
        self.span_bytes = span_bytes
        self._rng = sim.rng(f"noise/{name}")
        self.injected_ios = 0

    # -- building blocks ---------------------------------------------------
    def _submit(self, op, size, ioclass, priority, pid):
        offset = self._rng.randrange(0, max(1, self.span_bytes - size))
        offset -= offset % (4 * KB)
        req = BlockRequest(op, offset, size, pid=pid, ioclass=ioclass,
                           priority=priority)
        self.injected_ios += 1
        return self.os.submit_raw(req)

    # -- continuous noise threads ------------------------------------------------
    def disk_read_threads(self, n_threads=4, size=4 * KB, priority=6,
                          until_us=None, gap_us=0.0):
        """N closed-loop best-effort reader threads (Figure 4a/4b's
        injector)."""
        procs = []
        for t in range(n_threads):
            pid = NOISE_PID_BASE + t
            procs.append(self.sim.process(self._read_loop(
                size, priority, pid, until_us, gap_us)))
        return procs

    def _read_loop(self, size, priority, pid, until_us, gap_us):
        while until_us is None or self.sim.now < until_us:
            yield self._submit(IoOp.READ, size, IoClass.BE, priority, pid)
            if gap_us:
                yield gap_us

    def ssd_write_threads(self, n_threads=1, size=64 * KB, until_us=None,
                          gap_us=0.0):
        """Writer threads queueing reads behind writes (Figure 4c)."""
        procs = []
        for t in range(n_threads):
            pid = NOISE_PID_BASE + 100 + t
            procs.append(self.sim.process(self._write_loop(
                size, pid, until_us, gap_us)))
        return procs

    def _write_loop(self, size, pid, until_us, gap_us):
        while until_us is None or self.sim.now < until_us:
            yield self._submit(IoOp.WRITE, size, IoClass.BE, 4, pid)
            if gap_us:
                yield gap_us

    # -- timed busy windows (EC2 replay, rotating contention) -----------------
    def busy_window(self, duration_us, concurrency=2):
        """Keep the device busy for ~duration with concurrent 1 MB reads
        (best effort, priority 2)."""
        return self.sim.process(self._busy_window(duration_us, concurrency))

    def _busy_window(self, duration_us, concurrency):
        # Each "neighbour thread" keeps one IO outstanding back-to-back, so
        # the device stays saturated for the whole window (a gap-free busy
        # period, like a tenant streaming at full tilt).
        end = self.sim.now + duration_us

        def tenant_thread(pid):
            while self.sim.now < end:
                yield self._submit(IoOp.READ, 1 * MB, IoClass.BE, 2, pid)

        threads = [self.sim.process(tenant_thread(NOISE_PID_BASE + 200 + i))
                   for i in range(concurrency)]
        yield self.sim.all_of(threads)

    def run_schedule(self, episodes, style="disk"):
        """Replay (start_us, duration_us, intensity) noise episodes.

        ``style`` selects the contention type: "disk" = concurrent 1 MB
        reads, "ssd" = concurrent 64 KB write streams (reads queue behind
        writes/GC), "cache" = repeated partial cache evictions (memory
        space contention).
        """
        if style not in ("disk", "ssd", "cache"):
            raise ValueError(f"unknown noise style: {style}")
        return self.sim.process(self._run_schedule(episodes, style))

    def _run_schedule(self, episodes, style):
        for start, duration, intensity in episodes:
            delay = start - self.sim.now
            if delay > 0:
                yield delay
            concurrency = max(1, int(intensity))
            if style == "disk":
                yield self.sim.process(self._busy_window(duration,
                                                         concurrency))
            elif style == "ssd":
                yield self.sim.process(self._ssd_busy_window(
                    duration, concurrency))
            else:
                yield self.sim.process(self._cache_busy_window(
                    duration, intensity))

    def _ssd_busy_window(self, duration_us, concurrency):
        # Alternating big scans and write streams: the scans saturate the
        # shared channels (device-wide impact), the writes park chips on
        # 1-2 ms programs — together they produce the sub-ms..2 ms SSD
        # tail of Figure 3b.
        end = self.sim.now + duration_us
        if duration_us <= 0:
            return

        def submit(pid, writer):
            if writer:
                # A 1 MB write stripes 64 pages over half the chips,
                # parking each on a 1-2 ms program.
                return self._submit(IoOp.WRITE, 1 * MB, IoClass.BE, 4, pid)
            return self._submit(IoOp.READ, 2 * MB, IoClass.BE, 4, pid)

        def tenant_thread(pid, writer, first):
            yield first
            while self.sim.now < end:
                yield submit(pid, writer)

        # The first IOs are issued here, in tenant order.  Started as
        # processes in one timestamp, the readers and writers would draw
        # their offsets from the shared stream in heap tie-break order.
        tenants = [(NOISE_PID_BASE + 300 + i, bool(i % 2))
                   for i in range(max(2, concurrency))]
        firsts = [submit(pid, writer) for pid, writer in tenants]
        threads = [self.sim.process(tenant_thread(pid, writer, first))
                   for (pid, writer), first in zip(tenants, firsts)]
        yield self.sim.all_of(threads)

    def _cache_busy_window(self, duration_us, intensity):
        # Memory-space contention: a neighbour balloons briefly, evicting
        # a small slice of the cache once per episode; the victims fault
        # back in lazily, which is the ~p99 miss tail of Figure 3c.
        fraction = min(0.02, 0.004 * intensity)
        self.evict_cache_fraction(fraction)
        yield duration_us

    def ssd_erase_noise(self, rate_per_sec, until_us=None):
        """Random chip erases: other tenants' GC / wear-leveling (§4.3).

        Each erase parks the victim chip for 6 ms; reads that land on it
        blow a millisecond deadline — the contention MittSSD detects.
        """
        from repro._units import SEC
        ssd = self.os.device
        n_chips = ssd.geometry.n_chips

        def eraser():
            while until_us is None or self.sim.now < until_us:
                yield self._rng.expovariate(rate_per_sec / SEC)
                ssd.erase_block(self._rng.randrange(n_chips))
                self.injected_ios += 1

        return self.sim.process(eraser())

    # -- cache noise --------------------------------------------------------
    def evict_cache_fraction(self, fraction):
        """Throw away part of the page cache (VM ballooning, §7.1)."""
        if self.os.cache is None:
            raise RuntimeError("node has no page cache to evict from")
        return self.os.cache.evict_fraction(fraction, self._rng)

    def periodic_cache_eviction(self, fraction, period_us, until_us=None):
        """Keep re-evicting: sustained memory-space contention (§7.4)."""
        return self.sim.process(
            self._evict_loop(fraction, period_us, until_us))

    def _evict_loop(self, fraction, period_us, until_us):
        while until_us is None or self.sim.now < until_us:
            self.evict_cache_fraction(fraction)
            yield period_us


def rotating_contention(sim, injectors, period_us, horizon_us,
                        concurrency=4):
    """Severe disk contention rotating across nodes (§2's and §7.8.3's
    setup).

    One node at a time is made extremely busy for ``period_us``, then the
    noise moves to the next node — the "1 busy, rest free" pattern that
    defeats coarse replica ranking.
    """
    def driver():
        i = 0
        while sim.now < horizon_us:
            injector = injectors[i % len(injectors)]
            yield injector.busy_window(period_us, concurrency)
            i += 1

    return sim.process(driver())

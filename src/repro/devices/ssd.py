"""OpenChannel-style SSD model (§4.3).

The SSD exposes its internal geometry — channels, chips, blocks, pages — to
the host, the way LightNVM/OpenChannel devices do, which is what makes
MittSSD's per-chip bookkeeping possible.  Timing constants follow the paper:

* 16 KB page read: 100 µs (chip read + channel transfer),
* channel queueing delay: 60 µs per outstanding IO on the same channel,
* page program: 1 ms (lower page) or 2 ms (upper page), in the per-block
  pattern ``11111121121122...2112`` (512 pages/block),
* block erase: 6 ms.

Each chip services its operation queue FIFO; requests larger than one page
are chopped into page sub-IOs striped across chips.  Because chips serve
FIFO, every command's finish time is plain arithmetic on its chip's and
channel's next-free horizons at issue — the same arithmetic MittSSD
predicts from — so a request schedules one completion event, at its
slowest page, and per-command completions are settled lazily (see
:meth:`Ssd.settle`).  The host-side FTL lives here too (page-level
mapping, round-robin allocation, greedy GC) because on OpenChannel
devices the host owns the FTL.
"""

import heapq
import itertools

from repro._units import FLASH_PAGE_SIZE, MS
from repro.devices.request import IoOp
from repro.obs.events import IO_SERVICE_START, request_fields


def program_pattern(pages_per_block=512, lower_us=1 * MS, upper_us=2 * MS):
    """Per-page program times for one block, after the paper's profile.

    The paper reports the profiled pattern "11111121121122...2112": seven
    leading pages of mostly-lower programming, a repeating lower/upper body,
    and a 2112 tail — identical for every block, so a single array suffices.
    """
    head = [1, 1, 1, 1, 1, 1, 2, 1, 1, 2]
    tail = [2, 1, 1, 2]
    body_unit = [1, 1, 2, 2]
    pattern = list(head)
    while len(pattern) < pages_per_block - len(tail):
        pattern.extend(body_unit)
    pattern = pattern[:pages_per_block - len(tail)] + tail
    return [lower_us if x == 1 else upper_us for x in pattern]


class SsdGeometry:
    """Geometry and timing constants of the simulated device."""

    def __init__(self, n_channels=16, chips_per_channel=8, blocks_per_chip=64,
                 pages_per_block=512, page_size=FLASH_PAGE_SIZE,
                 page_read_us=100.0, channel_xfer_us=60.0, erase_us=6 * MS,
                 jitter_frac=0.01, gc_free_block_threshold=2):
        self.n_channels = n_channels
        self.chips_per_channel = chips_per_channel
        self.blocks_per_chip = blocks_per_chip
        self.pages_per_block = pages_per_block
        self.page_size = page_size
        self.page_read_us = page_read_us
        self.channel_xfer_us = channel_xfer_us
        self.erase_us = erase_us
        self.jitter_frac = jitter_frac
        self.gc_free_block_threshold = gc_free_block_threshold
        #: Wear-leveling kicks in when a chip's erase-count spread exceeds
        #: this (§4.3: "occasional wear-leveling page movements will
        #: introduce a significant noise").  None disables it.
        self.wear_spread_threshold = 8
        self.program_us = program_pattern(pages_per_block)

    @property
    def n_chips(self):
        return self.n_channels * self.chips_per_channel

    def chip_channel(self, chip_index):
        return chip_index // self.chips_per_channel

    def capacity_bytes(self):
        return (self.n_chips * self.blocks_per_chip * self.pages_per_block
                * self.page_size)


class _Chip:
    """One NAND chip: FIFO op queue plus block allocation state."""

    __slots__ = ("index", "channel", "next_free", "active_block",
                 "next_page", "free_blocks", "valid_count", "erased",
                 "erase_counts")

    def __init__(self, index, channel, geometry):
        self.index = index
        self.channel = channel
        self.next_free = 0.0
        self.free_blocks = list(range(geometry.blocks_per_chip))
        self.active_block = self.free_blocks.pop(0)
        self.next_page = 0
        #: valid page count per block (for greedy GC victim selection).
        self.valid_count = [0] * geometry.blocks_per_chip
        self.erased = 0
        #: per-block erase counts (wear; drives wear-leveling moves).
        self.erase_counts = [0] * geometry.blocks_per_chip

    def wear_spread(self):
        return max(self.erase_counts) - min(self.erase_counts)


class Ssd:
    """The SSD device: accepts block requests, runs them on chips."""

    def __init__(self, sim, geometry=None, name="ssd"):
        self.sim = sim
        self.bus = sim.bus
        self.geometry = geometry or SsdGeometry()
        self.name = name
        self._rng = sim.rng(f"ssd/{name}")
        geo = self.geometry
        self._chips = [_Chip(i, geo.chip_channel(i), geo)
                       for i in range(geo.n_chips)]
        #: Outstanding chip commands per channel (ground truth for the
        #: 60 µs delay), net of the settled ones.
        self._channel_outstanding = [0] * geo.n_channels
        #: Channel transfer timelines (transfers serialize per channel).
        self._channel_next_free = [0.0] * geo.n_channels
        #: Issued, not yet settled chip commands: ``(finish, seq, chip)``
        #: heap, ``seq`` being the issue order.
        self._pending = []
        self._issue_seq = itertools.count()
        #: Page-level FTL map: logical page number -> (chip, block, page).
        self._ftl = {}
        self._write_chip_rr = 0
        self._drain_callbacks = []
        #: Fail-slow hooks (FaultPlane): scales cell/erase times and adds
        #: optional per-op extra latency (GC storms, media retries).
        self.latency_scale = 1.0
        self.fault_latency_extra = None
        #: Host-side command observers (LightNVM: the host issues every chip
        #: command and receives per-command completions, so MittSSD can keep
        #: its own chip timelines without peeking at device internals).
        self._op_observers = []
        self.completed = 0
        self.gc_runs = 0
        self.wear_level_runs = 0

    # -- scheduler-facing API (mirrors Disk) -------------------------------
    def has_room(self):
        return True  # the SSD parallelizes internally; chips queue FIFO

    def add_drain_callback(self, fn):
        self._drain_callbacks.append(fn)

    @property
    def in_device(self):
        """Outstanding chip commands — page sub-IOs plus erase/GC busy
        periods — not requests, which is what ``Disk.in_device`` counts."""
        self.settle()
        return sum(self._channel_outstanding)

    def chip_next_free(self, chip_index):
        """Chip busy horizon — what MittSSD tracks (§4.3)."""
        return self._chips[chip_index].next_free

    def channel_outstanding(self, channel):
        self.settle()
        return self._channel_outstanding[channel]

    def settle(self):
        """Retire every chip command that has finished by now.

        A command's finish time is known when it is issued, so no event
        marks it; it stays pending until the first query at or after that
        time — ``in_device``, ``channel_outstanding``, the next
        ``submit``/``erase_block``, or MittSSD's estimate.  Settling drops
        it from its channel's count and hands op observers its
        ``"complete"``, in (finish time, issue order).  A command that
        finishes exactly at ``now`` counts as done.
        """
        pending = self._pending
        now = self.sim.now
        chan_out = self._channel_outstanding
        observers = self._op_observers
        while pending and pending[0][0] <= now:
            # repro: allow[DET005] the device's pending-command queue
            finish, _, chip = heapq.heappop(pending)
            chan_out[chip.channel] -= 1
            for fn in observers:
                fn("complete", chip.index, finish, "done")

    # -- address mapping ------------------------------------------------------
    def pages_of(self, offset, size):
        """Logical flash pages covered by a byte range."""
        first = offset // self.geometry.page_size
        last = (offset + size - 1) // self.geometry.page_size
        return list(range(first, last + 1))

    def read_chip_of(self, lpn):
        """Chip a logical page lives on (striped if never written)."""
        mapped = self._ftl.get(lpn)
        if mapped is not None:
            return mapped[0]
        return lpn % self.geometry.n_chips

    def predict_write_placement(self, n_pages):
        """(chip_index, program_us) for the next ``n_pages`` allocations.

        Pure FTL bookkeeping (no mutation): on host-managed flash the OS
        *is* the FTL, so MittSSD legitimately knows which chip and which
        block page index — hence which 1 ms/2 ms program time — each
        upcoming page write will get (§4.3's upper/lower page accuracy).
        """
        geo = self.geometry
        rr = self._write_chip_rr
        simulated_next = {}
        out = []
        for _ in range(n_pages):
            chip = self._chips[rr]
            rr = (rr + 1) % len(self._chips)
            page = simulated_next.get(chip.index, chip.next_page)
            if page >= geo.pages_per_block:
                page = 0  # a fresh block starts at page 0
            out.append((chip.index, geo.program_us[page]))
            simulated_next[chip.index] = page + 1
        return out

    # -- request execution ----------------------------------------------------
    def submit(self, req):
        """Run ``req`` as page sub-IOs; finish when the slowest one does.

        Each page draws its jitter and advances its chip and channel
        horizons in page order; a write's GC or wear-level move draws
        before the program of the page that triggered it.  The chip
        does the cell work and the data crosses the shared channel, where
        transfers serialize (60 µs each) — the queueing MittSSD's
        "#IO on same channel" term predicts.  The channel is held only for
        the transfer: after the cell read (reads), before the cell program
        (writes), so a parked chip does not block its channel-mates.
        """
        sim = self.sim
        now = sim.now
        self.settle()
        req.dispatch_time = now
        # Chip queueing is modeled analytically (next_free horizons), so the
        # device starts "servicing" the request the moment it arrives: the
        # device-queue span is zero and chip waits count as device-service.
        req.service_start = now
        if self.bus.recorder.active:
            self.bus.record(IO_SERVICE_START,
                            dict(request_fields(req), device=self.name))
        geo = self.geometry
        gauss = self._rng.gauss
        sigma = geo.jitter_frac
        scale = self.latency_scale
        extra = self.fault_latency_extra
        xfer = geo.channel_xfer_us
        ppb = geo.pages_per_block
        chips = self._chips
        n_chips = len(chips)
        ftl_get = self._ftl.get
        chan_free = self._channel_next_free
        chan_out = self._channel_outstanding
        pending = self._pending
        seq = self._issue_seq
        observers = self._op_observers
        is_read = req.op is IoOp.READ
        op_kind = "read" if is_read else "program"
        rr = self._write_chip_rr
        last = now
        for lpn in self.pages_of(req.offset, req.size):
            if is_read:
                mapped = ftl_get(lpn)
                chip = chips[lpn % n_chips if mapped is None else mapped[0]]
                duration = geo.page_read_us
            else:
                chip = chips[rr]
                rr = (rr + 1) % n_chips
                page = self._map_page(chip, lpn)
                if chip.next_page >= ppb:
                    self._advance_active_block(chip)  # may run GC
                duration = geo.program_us[page]
            jitter = gauss(1.0, sigma)
            if jitter < 0.5:
                jitter = 0.5
            if scale != 1.0:
                jitter *= scale  # fail-slow storm (FaultPlane)
            cell_time = (duration - xfer if duration > xfer else 0.0) * jitter
            if extra is not None:
                cell_time += extra()
            channel = chip.channel
            chip_free = chip.next_free
            if is_read:
                ready = (chip_free if chip_free > now else now) + cell_time
                free = chan_free[channel]
                finish = (ready if ready > free else free) + xfer
                chan_free[channel] = finish
            else:
                free = chan_free[channel]
                xfer_end = (now if now > free else free) + xfer
                chan_free[channel] = xfer_end
                finish = (chip_free if chip_free > xfer_end
                          else xfer_end) + cell_time
            chip.next_free = finish
            chan_out[channel] += 1
            for fn in observers:
                fn("enqueue", chip.index, duration, op_kind)
            # repro: allow[DET005] the device's pending-command queue
            heapq.heappush(pending, (finish, next(seq), chip))
            if finish > last:
                last = finish
        self._write_chip_rr = rr
        sim.schedule_at(last, self._finish_request, req)

    def _finish_request(self, req):
        self.completed += 1
        req.finish(self.sim.now)
        for fn in self._drain_callbacks:
            fn()

    def _map_page(self, chip, lpn):
        """Point ``lpn`` at the next page of ``chip``'s active block."""
        old = self._ftl.get(lpn)
        if old is not None:
            self._chips[old[0]].valid_count[old[1]] -= 1
        page = chip.next_page
        self._ftl[lpn] = (chip.index, chip.active_block, page)
        chip.valid_count[chip.active_block] += 1
        chip.next_page = page + 1
        return page

    def _open_block(self, chip):
        chip.active_block = chip.free_blocks.pop(0)
        chip.next_page = 0

    def _advance_active_block(self, chip):
        if not chip.free_blocks:
            self._garbage_collect(chip)
        if chip.next_page >= self.geometry.pages_per_block:
            self._open_block(chip)  # unless GC's migration opened one
        if len(chip.free_blocks) < self.geometry.gc_free_block_threshold:
            self._garbage_collect(chip)

    def _garbage_collect(self, chip):
        """Greedy GC: erase the block with the fewest valid pages.

        Valid pages are migrated (read + program on the same chip) into the
        active block, then the block is erased — 6 ms of chip busyness that
        reads behind it observe as the classic SSD tail (§4.3).
        """
        geo = self.geometry
        ppb = geo.pages_per_block
        candidates = [b for b in range(geo.blocks_per_chip)
                      if b != chip.active_block and b not in chip.free_blocks]
        if not candidates:
            raise RuntimeError("SSD chip has no GC victim (overfilled)")
        victim = min(candidates, key=lambda b: chip.valid_count[b])
        moves = chip.valid_count[victim]
        if moves >= ppb:
            # Every page still valid: an erase would reclaim nothing.
            if not chip.free_blocks:
                raise RuntimeError("SSD chip is full")
            return
        busy = moves * (geo.page_read_us + geo.program_us[0]) + geo.erase_us
        # GC occupies the chip as one opaque busy period.
        self._run_chip_op(chip, busy, "gc")
        live = [lpn for lpn, (c, block, _) in self._ftl.items()
                if c == chip.index and block == victim]
        chip.free_blocks.append(victim)
        # Remap the migrated pages to the blocks that receive them; a full
        # active block gives way to the next free one (the victim itself
        # when it was the last).
        for lpn in live:
            if chip.next_page >= ppb:
                self._open_block(chip)
            self._map_page(chip, lpn)
        if chip.next_page >= ppb:
            self._open_block(chip)
        chip.erased += 1
        chip.erase_counts[victim] += 1
        self.gc_runs += 1
        self._maybe_wear_level(chip)

    def _maybe_wear_level(self, chip):
        """Relocate a cold (least-erased) block when wear skews (§4.3)."""
        threshold = self.geometry.wear_spread_threshold
        if threshold is None or chip.wear_spread() <= threshold:
            return
        geo = self.geometry
        cold = min(range(geo.blocks_per_chip),
                   key=lambda b: chip.erase_counts[b])
        moves = chip.valid_count[cold]
        busy = moves * (geo.page_read_us + geo.program_us[0]) + geo.erase_us
        self._run_chip_op(chip, busy, "gc")
        chip.erase_counts[cold] += 1
        self.wear_level_runs += 1

    def erase_block(self, chip_index):
        """Explicit erase (used by tests and the noise injector)."""
        self.settle()
        self._run_chip_op(self._chips[chip_index], self.geometry.erase_us,
                          "erase")

    # -- chip timing ------------------------------------------------------------
    def add_op_observer(self, fn):
        """``fn(kind, chip_index, us, op_kind)`` per chip command.

        ``kind`` is "enqueue" when the command is issued: ``us`` is its
        spec-model duration (pre-jitter) and ``op_kind`` names it —
        read/program/erase/gc.  ``kind`` is "complete" when the command
        is settled (see :meth:`settle`): ``us`` is the simulated time the
        chip finished it, which may lie before the current time, and
        ``op_kind`` is "done".
        """
        self._op_observers.append(fn)

    def _run_chip_op(self, chip, duration, op_kind):
        """Occupy ``chip`` for an erase or GC busy period of spec length
        ``duration``: chip only, no data transfer on the channel."""
        jitter = max(0.5, self._rng.gauss(1.0, self.geometry.jitter_frac))
        if self.latency_scale != 1.0:
            jitter *= self.latency_scale
        if self.fault_latency_extra is not None:
            # Drawn for every chip command, as for a page, though a busy
            # period without a transfer does not add it.
            self.fault_latency_extra()
        finish = max(chip.next_free, self.sim.now) + duration * jitter
        chip.next_free = finish
        self._channel_outstanding[chip.channel] += 1
        for fn in self._op_observers:
            fn("enqueue", chip.index, duration, op_kind)
        # repro: allow[DET005] the device's pending-command queue
        heapq.heappush(self._pending, (finish, next(self._issue_seq), chip))

"""A bcache-style flash cache tier between the OS cache and the disk.

§7.8.5 deploys all three MittOS resource managements at once: "The SSD is
mounted as a flash cache (with Linux bcache) between the OS cache and the
disk, thus our MongoDB still runs on one partition."  This module provides
that tier: a read-through/write-around cache that keeps hot extents on the
SSD and falls back to the disk, with *both* devices' predictors consulted
for SLO admission:

* hit in the flash cache -> the SSD predictor (MittSSD) decides;
* miss -> the disk predictor (MittCFQ/MittNoop) decides for the disk read,
  and the promotion write to flash happens in the background (never on the
  foreground path, like bcache's writearound mode).

``FlashCache.read`` is a sub-generator over the chosen tier's ``OS.read``,
driven with ``yield from`` like the OS read itself.
"""

from repro._units import KB
from repro.devices.request import BlockRequest, IoClass, IoOp
from repro.errors import is_ebusy


class FlashCache:
    """Hot-extent map + routing between an SSD tier and a disk tier."""

    def __init__(self, sim, ssd_os, disk_os, capacity_bytes,
                 extent_bytes=64 * KB, promote_threshold=2):
        if capacity_bytes <= 0:
            raise ValueError("flash cache needs a positive capacity")
        self.sim = sim
        #: The SSD tier's OS stack (scheduler + MittSSD predictor).
        self.ssd_os = ssd_os
        #: The backing disk's OS stack (scheduler + MittCFQ predictor).
        self.disk_os = disk_os
        self.extent_bytes = extent_bytes
        self.capacity_extents = max(1, capacity_bytes // extent_bytes)
        self._extents = {}        # extent id -> ssd offset
        self._lru = []            # extent ids, least-recent first
        self._access_counts = {}
        self._ssd_alloc = 0
        self.promote_threshold = promote_threshold
        self.hits = 0
        self.misses = 0
        self.promotions = 0

    # -- mapping ----------------------------------------------------------
    def _extent_of(self, offset):
        return offset // self.extent_bytes

    def cached(self, offset, size):
        """True iff the whole byte range is covered by cached extents."""
        first = self._extent_of(offset)
        last = self._extent_of(offset + size - 1)
        return all(e in self._extents for e in range(first, last + 1))

    def _touch(self, extent):
        if extent in self._extents:
            self._lru.remove(extent)
            self._lru.append(extent)

    def _ssd_offset(self, offset):
        extent = self._extent_of(offset)
        base = self._extents[extent]
        return base + offset % self.extent_bytes

    # -- the read path ---------------------------------------------------
    def read(self, file_id, offset, size, pid=0, deadline=None):
        """SLO-aware tiered read as a generator: returns ReadResult or
        EBUSY.  A successful disk read may queue a background promotion."""
        if self.cached(offset, size):
            self.hits += 1
            self._touch(self._extent_of(offset))
            return (yield from self.ssd_os.read(
                file_id, self._ssd_offset(offset), size, pid=pid,
                deadline=deadline))
        self.misses += 1
        result = yield from self.disk_os.read(file_id, offset, size, pid=pid,
                                              deadline=deadline)
        if not is_ebusy(result):
            self._maybe_promote(offset, size)
        return result

    def _maybe_promote(self, offset, size):
        extent = self._extent_of(offset)
        count = self._access_counts.get(extent, 0) + 1
        self._access_counts[extent] = count
        if count < self.promote_threshold or extent in self._extents:
            return
        self._promote(extent)

    def _promote(self, extent):
        """Background write of one extent into the SSD tier."""
        self.promotions += 1
        if len(self._extents) >= self.capacity_extents:
            victim = self._lru.pop(0)
            del self._extents[victim]
        ssd_offset = self._ssd_alloc
        self._ssd_alloc = ((self._ssd_alloc + self.extent_bytes)
                           % (self.capacity_extents * self.extent_bytes))
        self._extents[extent] = ssd_offset
        self._lru.append(extent)
        # The promotion write competes on the SSD at low priority but
        # never blocks the foreground read that triggered it.
        req = BlockRequest(IoOp.WRITE, ssd_offset, self.extent_bytes,
                           pid=-2, ioclass=IoClass.IDLE, priority=7)
        self.ssd_os.scheduler.submit(req)

    # -- maintenance ----------------------------------------------------------
    def invalidate(self, offset, size):
        """Drop extents overlapping a written byte range (write-around)."""
        first = self._extent_of(offset)
        last = self._extent_of(offset + size - 1)
        for extent in range(first, last + 1):
            if extent in self._extents:
                del self._extents[extent]
                self._lru.remove(extent)

    @property
    def cached_extents(self):
        return len(self._extents)

"""The §7.8.5 node: OS cache above flash cache above disk, all SLO-aware.

Three users with different working sets and deadlines share one stack:

* hot data answers from the page cache (MittCache guards residency),
* warm data answers from the SSD flash-cache tier (MittSSD guards chips),
* cold data goes to the disk (MittCFQ guards the spindle),

and a single ``read(..., deadline)`` call is admitted by whichever tier
will actually serve it — the composition the paper demonstrates by running
all three microbenchmark noises at once.  The read is a sub-generator that
drives ``FlashCache.read`` (and through it ``OS.read``) with ``yield from``.
"""

from repro.errors import is_ebusy
from repro.kernel.syscall import ReadResult


class TieredStack:
    """Page-cache -> flash-cache -> disk read path with one deadline."""

    def __init__(self, sim, page_cache, flash_cache, memory_read_us=20.0):
        self.sim = sim
        self.page_cache = page_cache
        self.flash_cache = flash_cache
        self.memory_read_us = memory_read_us
        self.reads = 0
        self.ebusy_returned = 0

    def read(self, file_id, offset, size, pid=0, deadline=None):
        """Tiered SLO-aware read as a generator: returns ReadResult or
        EBUSY."""
        self.reads += 1
        start = self.sim.now
        if self.page_cache.touch(file_id, offset, size):
            yield self.memory_read_us
            return ReadResult(True, self.memory_read_us)
        result = yield from self.flash_cache.read(file_id, offset, size,
                                                  pid=pid, deadline=deadline)
        if is_ebusy(result):
            self.ebusy_returned += 1
            return result
        self.page_cache.insert(file_id, offset, size)
        return ReadResult(False, self.sim.now - start)

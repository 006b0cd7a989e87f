"""OS buffer cache: LRU pages, residency checks, background swap-in (§4.4).

MittCache is a thin layer: for ``read(..., deadline)`` it checks residency
and either serves from memory or propagates the deadline to the IO layer;
for mmap-ed access it answers ``addrcheck()`` by walking the page table.
One caveat the paper calls out: after returning EBUSY the OS should *keep
swapping the data in* in the background so tenants that expect memory
residency still get their cache share — :meth:`note_ebusy_swapin` models it.
"""

from collections import OrderedDict

from repro._units import PAGE_SIZE
from repro.obs.events import CACHE_HIT, CACHE_MISS, CACHE_SWAPIN


class PageCache:
    """An LRU page cache keyed by (file_id, page_number)."""

    def __init__(self, sim, capacity_pages, page_size=PAGE_SIZE):
        if capacity_pages <= 0:
            raise ValueError("cache needs a positive capacity")
        self.sim = sim
        self.bus = sim.bus
        self.capacity_pages = capacity_pages
        self.page_size = page_size
        self._pages = OrderedDict()   # (file_id, pageno) -> True
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.background_swapins = 0

    # -- residency ----------------------------------------------------------
    def pages_of(self, offset, size):
        first = offset // self.page_size
        last = (offset + size - 1) // self.page_size
        return range(first, last + 1)

    def resident(self, file_id, offset, size):
        """True iff every page of the byte range is cached (page-table walk)."""
        first = offset // self.page_size
        last = (offset + size - 1) // self.page_size
        if first == last:
            return (file_id, first) in self._pages
        return all((file_id, p) in self._pages
                   for p in range(first, last + 1))

    def missing_pages(self, file_id, offset, size):
        return [p for p in self.pages_of(offset, size)
                if (file_id, p) not in self._pages]

    # -- population / access --------------------------------------------------
    def touch(self, file_id, offset, size):
        """Record an access; returns True on full hit (and bumps LRU)."""
        pages = self._pages
        first = offset // self.page_size
        last = (offset + size - 1) // self.page_size
        if first == last:
            key = (file_id, first)
            hit = key in pages
            if hit:
                pages.move_to_end(key)
        else:
            keys = [(file_id, p) for p in range(first, last + 1)]
            hit = all(k in pages for k in keys)
            if hit:
                for k in keys:
                    pages.move_to_end(k)
        if hit:
            self.hits += 1
            if self.bus.recorder.active:
                self.bus.record(CACHE_HIT, {"file": file_id, "offset": offset,
                                            "size": size})
            return True
        self.misses += 1
        if self.bus.recorder.active:
            self.bus.record(CACHE_MISS, {"file": file_id, "offset": offset,
                                         "size": size})
        return False

    def insert(self, file_id, offset, size):
        """Populate pages of a byte range (after a disk fill)."""
        for p in self.pages_of(offset, size):
            key = (file_id, p)
            if key in self._pages:
                self._pages.move_to_end(key)
            else:
                self._pages[key] = True
                if len(self._pages) > self.capacity_pages:
                    self._pages.popitem(last=False)
                    self.evictions += 1

    # -- contention injection ---------------------------------------------------
    def evict_fraction(self, fraction, rng):
        """Drop a random fraction of cached pages (VM-ballooning noise, §7.1).

        Mirrors the paper's use of ``posix_fadvise`` to throw away ~20% of
        the cached data for the MittCache microbenchmark.
        """
        if not 0 <= fraction <= 1:
            raise ValueError("fraction must be within [0, 1]")
        keys = list(self._pages)
        n_evict = int(len(keys) * fraction)
        for key in rng.sample(keys, n_evict):
            del self._pages[key]
        self.evictions += n_evict
        return n_evict

    def evict_file_range(self, file_id, offset, size):
        """Targeted eviction of one range (fadvise DONTNEED)."""
        count = 0
        for p in self.pages_of(offset, size):
            if self._pages.pop((file_id, p), None):
                count += 1
        self.evictions += count
        return count

    def note_ebusy_swapin(self, file_id, offset, size):
        """Background swap-in after EBUSY (fairness caveat of §4.4).

        The data is marked resident again without an application waiting on
        it; the IO cost is accounted as cache-internal (the experiments'
        foreground latencies are unaffected, as in the paper).
        """
        self.insert(file_id, offset, size)
        self.background_swapins += 1
        if self.bus.recorder.active:
            self.bus.record(CACHE_SWAPIN, {"file": file_id, "offset": offset,
                                           "size": size})

    @property
    def used_pages(self):
        return len(self._pages)

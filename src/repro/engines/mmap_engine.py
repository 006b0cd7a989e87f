"""MongoDB-like engine: mmap-ed data file with SLO-aware access (§5).

MongoDB (MMAPv1 era) maps its database files into the heap and dereferences
pointers; a non-resident page stalls on a page fault with no syscall to
return EBUSY from.  The paper's practical fix is ``addrcheck()``: a quick
page-table walk *before* the dereference.  This engine supports both access
paths the paper built:

* ``use_addrcheck=True`` — check residency/deadline first (the 50-LOC
  MongoDB integration), then read without a deadline;
* ``use_addrcheck=False`` — the read-based method (the extra 40 LOC), where
  ``read(..., deadline)`` itself may return EBUSY.

Either way the engine returns ``EBUSY`` (no exception: the paper's
"exceptionless retry path") or a :class:`GetRecord`.
"""

from repro.errors import is_ebusy


class GetRecord:
    """Successful engine read: where the data came from and how long it took."""

    __slots__ = ("key", "cache_hit", "engine_latency")

    def __init__(self, key, cache_hit, engine_latency):
        self.key = key
        self.cache_hit = cache_hit
        self.engine_latency = engine_latency


class MMapEngine:
    """Single-node KV reads over a (simulated) mmap-ed data file."""

    def __init__(self, os, keyspace, file_id=0, pid=100, use_addrcheck=None):
        self.os = os
        self.keyspace = keyspace
        self.file_id = file_id
        #: MongoDB is one process: all its IOs share a CFQ node.
        self.pid = pid
        if use_addrcheck is None:
            use_addrcheck = os.cache is not None
        if use_addrcheck and os.cache is None:
            raise ValueError("addrcheck path requires a page cache")
        self.use_addrcheck = use_addrcheck
        self.gets = 0
        self.ebusy = 0

    def get(self, key, deadline=None, priority=None):
        """Generator: returns EBUSY or a GetRecord.

        The node drives it with ``yield from``; run it on its own with
        ``sim.process(engine.get(key))``.  ``priority`` overrides the
        read's CFQ priority (SLO-control work tier); None keeps the OS
        default of 4.
        """
        self.gets += 1
        start = self.os.sim.now
        offset, size = self.keyspace.locate(key)

        if self.use_addrcheck and deadline is not None:
            yield self.os.params.addrcheck_us
            verdict = self.os.addrcheck(self.file_id, offset, size, deadline)
            if is_ebusy(verdict):
                self.ebusy += 1
                return verdict
            # Admitted: dereference/read without re-checking the deadline.
            deadline = None

        result = yield from self.os.read(
            self.file_id, offset, size, pid=self.pid,
            priority=4 if priority is None else priority,
            deadline=deadline)
        if is_ebusy(result):
            self.ebusy += 1
            return result
        return GetRecord(key, result.cache_hit, self.os.sim.now - start)

    def put(self, key):
        """Generator: buffered write of one record (§7.8.6 semantics)."""
        offset, size = self.keyspace.locate(key)
        yield from self.os.write(self.file_id, offset, size, pid=self.pid)
        if self.os.cache is not None:
            self.os.cache.insert(self.file_id, offset, size)
        return True

    def preload(self, keys):
        """Warm the page cache with these keys' pages (experiment setup)."""
        if self.os.cache is None:
            raise RuntimeError("preload requires a page cache")
        for key in keys:
            offset, size = self.keyspace.locate(key)
            self.os.cache.insert(self.file_id, offset, size)

"""LevelDB-like LSM engine (§5): read-only sorted runs behind bloom filters.

LevelDB is a single-machine engine embedded in a replicated store (Riak).
The paper's two-level integration passes MittOS EBUSY out of LevelDB up to
Riak, where the failover happens.  Figure 13 only reads, so this engine
keeps the structure that matters for read latency: the keys are
bulk-loaded into disjoint L1 sorted runs (SSTables), and a get probes each
run whose key range holds the key, where a bloom filter (in memory, small
false-positive rate) gates one block read.  There is no write path:
memtable, L0 and compaction are not modelled.

Any block read may return EBUSY when run with a deadline; the engine
propagates it to the caller immediately (the rest of the lookup is
abandoned, matching "the returned EBUSY is propagated to Riak").
"""

from repro._units import KB
from repro.engines.mmap_engine import GetRecord
from repro.errors import is_ebusy

#: One block read per probed table; one value per key.
_BLOCK_SIZE = 4 * KB
_VALUE_SIZE = 1 * KB


class SsTable:
    """One sorted run: key range, bloom filter, on-device extent."""

    __slots__ = ("keys", "lo", "hi", "offset", "size")

    def __init__(self, keys, offset):
        self.keys = frozenset(keys)
        self.lo = min(keys)
        self.hi = max(keys)
        self.offset = offset
        self.size = max(_BLOCK_SIZE, len(keys) * _VALUE_SIZE)

    def may_contain(self, key, rng, bloom_fp_rate):
        """Bloom check: exact for members, small FP rate for others."""
        if key in self.keys:
            return True
        return rng.random() < bloom_fp_rate

    def block_offset(self, key):
        """Device offset of the block holding ``key`` (or a probe block)."""
        span = max(1, self.size // _BLOCK_SIZE)
        return self.offset + (hash(key) % span) * _BLOCK_SIZE


class LsmEngine:
    """Single-node read-only LSM KV store over the simulated OS."""

    def __init__(self, os, file_id=1, pid=200, bloom_fp_rate=0.01):
        self.os = os
        self.sim = os.sim
        self.file_id = file_id
        self.pid = pid
        self.bloom_fp_rate = bloom_fp_rate
        self._rng = os.sim.rng(f"lsm/{file_id}")
        self._l1 = []          # sorted, non-overlapping (by construction)
        self._alloc_cursor = 0
        self.gets = 0
        self.ebusy = 0

    def load_bulk(self, keys, tables=8):
        """Pre-populate L1 directly (experiment setup, no IO)."""
        keys = sorted(keys)
        if not keys:
            return
        chunk = max(1, len(keys) // tables)
        for i in range(0, len(keys), chunk):
            part = keys[i:i + chunk]
            self._l1.append(SsTable(part, self._alloc_cursor))
            self._alloc_cursor += len(part) * KB

    # -- reads ------------------------------------------------------------
    def get(self, key, deadline=None, priority=None):
        """Generator: returns EBUSY (propagated), a GetRecord or None.

        ``priority`` overrides the read's CFQ priority (SLO-control work
        tier); None keeps the OS default of 4.
        """
        self.gets += 1
        start = self.sim.now
        for table in self._l1:
            if not (table.lo <= key <= table.hi):
                continue
            if not table.may_contain(key, self._rng, self.bloom_fp_rate):
                continue
            result = yield from self.os.read(
                self.file_id, table.block_offset(key), _BLOCK_SIZE,
                pid=self.pid, priority=4 if priority is None else priority,
                deadline=deadline)
            if is_ebusy(result):
                self.ebusy += 1
                return result  # propagate up (Riak does the failover)
            if key in table.keys:
                return GetRecord(key, False, self.sim.now - start)
            # bloom false positive: keep searching the other tables
        return None

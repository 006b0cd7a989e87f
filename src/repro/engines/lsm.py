"""LevelDB-like LSM engine (§5): memtable, sorted runs, compaction.

LevelDB is a single-machine engine embedded in a replicated store (Riak).
The paper's two-level integration passes MittOS EBUSY out of LevelDB up to
Riak, where the failover happens.  This engine mirrors the structure that
matters for IO latency:

* writes land in a memtable and flush to L0 as sorted runs (SSTables),
* gets check the memtable, then tables newest-first; per table a bloom
  filter (in memory, small false-positive rate) gates one block read,
* a background compactor merges L0 runs into L1, issuing large low-priority
  reads and writes — self-inflicted noise, as in real LevelDB.

Any block read may return EBUSY when run with a deadline; the engine
propagates it to the caller immediately (the rest of the lookup is
abandoned, matching "the returned EBUSY is propagated to Riak").
"""

from repro._units import KB
from repro.devices.request import IoClass
from repro.engines.mmap_engine import GetRecord
from repro.errors import is_ebusy


class SsTable:
    """One sorted run: key range, bloom filter, on-device extent."""

    __slots__ = ("table_id", "keys", "lo", "hi", "offset", "size",
                 "block_size")

    def __init__(self, table_id, keys, offset, block_size=4 * KB,
                 value_size=1 * KB):
        self.table_id = table_id
        self.keys = frozenset(keys)
        self.lo = min(keys)
        self.hi = max(keys)
        self.offset = offset
        self.size = max(block_size, len(keys) * value_size)
        self.block_size = block_size

    def may_contain(self, key, rng, bloom_fp_rate):
        """Bloom check: exact for members, small FP rate for others."""
        if key in self.keys:
            return True
        return rng.random() < bloom_fp_rate

    def block_offset(self, key):
        """Device offset of the block holding ``key`` (or a probe block)."""
        span = max(1, self.size // self.block_size)
        return self.offset + (hash(key) % span) * self.block_size


class LsmEngine:
    """Single-node LSM KV store over the simulated OS."""

    def __init__(self, os, file_id=1, pid=200, memtable_limit=256,
                 l0_compaction_trigger=4, bloom_fp_rate=0.01,
                 region_bytes=64 << 20, base_offset=0):
        self.os = os
        self.sim = os.sim
        self.file_id = file_id
        self.pid = pid
        self.memtable_limit = memtable_limit
        self.l0_compaction_trigger = l0_compaction_trigger
        self.bloom_fp_rate = bloom_fp_rate
        self._rng = os.sim.rng(f"lsm/{file_id}")
        self._memtable = set()
        self._l0 = []          # newest first
        self._l1 = []          # sorted, non-overlapping (by construction)
        self._next_table_id = 0
        self._alloc_cursor = base_offset
        self._region_bytes = region_bytes
        self._compacting = False
        self.gets = 0
        self.ebusy = 0
        self.compactions = 0

    # -- allocation ------------------------------------------------------------
    def _allocate(self, size):
        offset = self._alloc_cursor
        self._alloc_cursor += size
        return offset

    # -- writes -----------------------------------------------------------
    def put(self, key):
        """Generator: insert a key (value bytes are implicit)."""
        yield from self.os.write(self.file_id, 0, 1 * KB, pid=self.pid)
        self._memtable.add(key)
        if len(self._memtable) >= self.memtable_limit:
            self._flush_memtable()
        return True

    def _flush_memtable(self):
        keys = self._memtable
        self._memtable = set()
        table = SsTable(self._next_table_id, keys,
                        self._allocate(len(keys) * KB))
        self._next_table_id += 1
        self._l0.insert(0, table)
        if (len(self._l0) >= self.l0_compaction_trigger
                and not self._compacting):
            self._compacting = True
            self.sim.process(self._compact())

    def load_bulk(self, keys, tables=8):
        """Pre-populate L1 directly (experiment setup, no IO)."""
        keys = sorted(keys)
        if not keys:
            return
        chunk = max(1, len(keys) // tables)
        for i in range(0, len(keys), chunk):
            part = keys[i:i + chunk]
            table = SsTable(self._next_table_id, part,
                            self._allocate(len(part) * KB))
            self._next_table_id += 1
            self._l1.append(table)

    # -- reads ------------------------------------------------------------
    def get(self, key, deadline=None, priority=None):
        """Generator: returns EBUSY (propagated), a GetRecord or None.

        ``priority`` overrides the read's CFQ priority (SLO-control work
        tier); None keeps the OS default of 4.
        """
        self.gets += 1
        start = self.sim.now
        if key in self._memtable:
            yield 5.0  # in-memory lookup
            return GetRecord(key, True, self.sim.now - start)
        for table in list(self._l0) + self._l1:
            if not (table.lo <= key <= table.hi):
                continue
            if not table.may_contain(key, self._rng, self.bloom_fp_rate):
                continue
            result = yield from self.os.read(
                self.file_id, table.block_offset(key), table.block_size,
                pid=self.pid, priority=4 if priority is None else priority,
                deadline=deadline)
            if is_ebusy(result):
                self.ebusy += 1
                return result  # propagate up (Riak does the failover)
            if key in table.keys:
                return GetRecord(key, False, self.sim.now - start)
            # bloom false positive: keep searching older tables
        return None

    # -- compaction ---------------------------------------------------------
    def _compact(self):
        """Merge all L0 runs (plus overlapping L1) into fresh L1 tables."""
        self.compactions += 1
        inputs = self._l0 + self._l1
        read_bytes = sum(t.size for t in inputs)
        # Large sequential reads + writes at Idle priority: real compaction
        # competes with foreground IO exactly like this.
        chunk = 1 << 20
        offset = inputs[0].offset if inputs else 0
        remaining = read_bytes
        while remaining > 0:
            size = min(chunk, remaining)
            yield from self.os.read(self.file_id, offset, size,
                                    pid=self.pid, ioclass=IoClass.IDLE,
                                    priority=7)
            yield from self.os.write(self.file_id, offset, size, pid=self.pid)
            offset += size
            remaining -= size
        merged = sorted(set().union(*(t.keys for t in inputs)))
        # Runs flushed *while* we were merging stay in L0 untouched.
        input_ids = {t.table_id for t in inputs}
        self._l0 = [t for t in self._l0 if t.table_id not in input_ids]
        self._l1 = [t for t in self._l1 if t.table_id not in input_ids]
        if merged:
            self.load_bulk(merged, tables=max(1, len(merged) // 512))
        self._compacting = False
        if len(self._l0) >= self.l0_compaction_trigger:
            self._compacting = True
            self.sim.process(self._compact())
        return True

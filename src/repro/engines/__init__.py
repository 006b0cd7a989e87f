"""Storage engines layered on the simulated OS.

* :class:`~repro.engines.mmap_engine.MMapEngine` — MongoDB-like: data file
  accessed mmap-style through the page cache, guarded by ``addrcheck()``.
* :class:`~repro.engines.lsm.LsmEngine` — LevelDB-like and read-only:
  bulk-loaded sorted runs behind bloom filters.
"""

from repro.engines.kv import KeySpace
from repro.engines.lsm import LsmEngine
from repro.engines.mmap_engine import MMapEngine

__all__ = ["KeySpace", "MMapEngine", "LsmEngine"]

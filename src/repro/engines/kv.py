"""Key-value record layout: where a key's bytes live on the device.

The YCSB workloads read 1 KB values by key.  A :class:`KeySpace` places each
key's record at a deterministic byte offset, spread across the device so that
random keys produce realistic random IO (full-stroke seeks on disk, chip
striping on SSD).
"""

import hashlib

from repro._units import KB


def _stable_hash(value):
    """Deterministic across processes (unlike ``hash()``)."""
    digest = hashlib.md5(str(value).encode()).digest()
    return int.from_bytes(digest[:8], "little")


class KeySpace:
    """Deterministic key -> (offset, size) placement."""

    def __init__(self, n_keys, value_size=1 * KB, span_bytes=None,
                 align=4 * KB):
        if n_keys <= 0:
            raise ValueError("keyspace needs at least one key")
        self.n_keys = n_keys
        self.value_size = value_size
        self.align = align
        #: Byte range records are spread over (defaults to dense packing).
        self.span_bytes = span_bytes or n_keys * max(value_size, align)
        self._slots = self.span_bytes // align
        if self._slots < n_keys:
            raise ValueError("span too small for keyspace")
        #: key -> (offset, size); placement is pure, so memoizing it turns
        #: the per-get md5 into a dict hit after each key's first access.
        self._placed = {}

    def locate(self, key):
        """(offset, size) of a key's record."""
        placed = self._placed.get(key)
        if placed is not None:
            return placed
        if not 0 <= key < self.n_keys:
            raise KeyError(f"key out of range: {key}")
        slot = _stable_hash(key) % self._slots
        placed = (slot * self.align, self.value_size)
        self._placed[key] = placed
        return placed

    def total_bytes(self):
        return self.n_keys * self.value_size

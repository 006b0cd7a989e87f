"""Cluster assembly: nodes, deterministic replica placement.

Data is always replicated three ways (paper §7: "every get() request has
three choices").  Placement is hash-based over consecutive nodes so replica
sets are deterministic and evenly spread.
"""

from repro.engines.kv import _stable_hash

#: A placement-memo byte for "not placed yet" (and for a start index too
#: large for one byte, which is recomputed on every call).
_UNPLACED = 0xFF


class Cluster:
    """A set of storage nodes plus replica placement."""

    def __init__(self, sim, nodes, network, replication=3, primary_fn=None):
        if replication < 1:
            # Strategies index replicas[0] / replicas[-1]; an empty replica
            # set would crash them with IndexError deep in a process.
            raise ValueError("replication factor must be at least 1")
        if replication > len(nodes):
            raise ValueError("replication factor exceeds cluster size")
        self.sim = sim
        self.nodes = list(nodes)
        self.network = network
        self.replication = replication
        n = len(self.nodes)
        #: The replica set starting at each node, primary first.
        self._replica_sets = tuple(
            tuple(self.nodes[(start + i) % n] for i in range(replication))
            for start in range(n))
        #: Placement memo: key -> start index, one byte per key, grown on
        #: demand because keys are non-negative ints below their
        #: keyspace's ``n_keys``.
        self._starts = bytearray()
        #: Optional override: key -> primary node index.  The §7.1
        #: microbenchmarks direct every request to the noisy node first.
        self.primary_fn = primary_fn
        #: Installed by ``FaultPlane.arm``: resilience defaults every
        #: strategy picks up (None = fail-free legacy behaviour, unbounded
        #: waits allowed) and a shared replica-health tracker.
        self.fault_plane = None
        self.default_rpc_timeout_us = None
        self.default_op_budget_us = None
        self.default_max_attempts = None
        self.health = None

    def replicas_for(self, key):
        """The key's replica nodes, primary first, as a tuple shared by
        every key with the same primary.  Keys are non-negative ints."""
        if self.primary_fn is not None:
            return self._replica_sets[self.primary_fn(key) % len(self.nodes)]
        starts = self._starts
        if not 0 <= key < len(starts):
            if key < 0:
                raise KeyError(f"key out of range: {key}")
            starts.extend(b"\xff" * (key + 1 - len(starts)))
        start = starts[key]
        if start == _UNPLACED:
            start = _stable_hash(("placement", key)) % len(self.nodes)
            if start < _UNPLACED:
                starts[key] = start
        return self._replica_sets[start]

    def node(self, node_id):
        return self.nodes[node_id]

    def __len__(self):
        return len(self.nodes)

"""Replica switching vs consistency (§8.3).

"MittOS encourages fast failover, however many NoSQL systems support
eventual consistency and generally attempt to minimize replica switching
to ensure monotonic reads.  MittOS-powered NoSQL can be made more
conservative about switching replicas that may lead to inconsistencies
(e.g., do not failover until the other replicas are no longer stale)."

The model: writes apply at the primary immediately and reach each other
replica after a replication lag, so every (node, key) pair carries a
version.  A client session tracks the highest version it has seen per key
(a *session guarantee*); an unguarded fast failover can hand it an older
version — a monotonic-read violation.  :class:`StalenessGuard` is the
conservative mode the paper suggests: on EBUSY, skip replicas still known
stale for this session, even if that means waiting on the busy one.
"""

from repro.errors import is_ebusy


class VersionedData:
    """Per-node key versions with asynchronous replication."""

    def __init__(self, sim, cluster, replication_lag_us):
        self.sim = sim
        self.cluster = cluster
        self.replication_lag_us = replication_lag_us
        #: (node_id, key) -> version
        self._versions = {}
        self.writes = 0

    def version(self, node, key):
        return self._versions.get((node.node_id, key), 0)

    def write(self, key):
        """Apply at the primary now; replicas catch up after the lag."""
        self.writes += 1
        replicas = self.cluster.replicas_for(key)
        primary = replicas[0]
        new_version = self.version(primary, key) + 1
        self._versions[(primary.node_id, key)] = new_version

        for node in replicas[1:]:
            self.sim.schedule(self.replication_lag_us,
                              self._apply, node.node_id, key, new_version)
        return new_version

    def _apply(self, node_id, key, version):
        current = self._versions.get((node_id, key), 0)
        if version > current:
            self._versions[(node_id, key)] = version


class Session:
    """One client session tracking read versions (monotonic reads)."""

    def __init__(self):
        self._seen = {}
        self.reads = 0
        self.violations = 0

    def last_seen(self, key):
        return self._seen.get(key, 0)

    def observe(self, key, version):
        """Record a read; counts a violation if the version regressed."""
        self.reads += 1
        if version < self._seen.get(key, 0):
            self.violations += 1
        else:
            self._seen[key] = version


class StalenessGuard:
    """The conservative failover filter of §8.3."""

    def __init__(self, data, session):
        self.data = data
        self.session = session
        self.skipped_stale = 0

    def acceptable(self, node, key):
        """May this session read ``key`` from ``node``?"""
        return self.data.version(node, key) >= self.session.last_seen(key)

    def filter_failover_targets(self, key, replicas):
        """Replicas safe to fail over to (primary always included)."""
        out = [replicas[0]]
        for node in replicas[1:]:
            if self.acceptable(node, key):
                out.append(node)
            else:
                self.skipped_stale += 1
        return out


def mittos_get_with_guard(sim, cluster, data, session, key, deadline_us,
                          guard=None):
    """A MittOS get() that reads versions; optionally guarded.

    Returns a process event whose value is the version read.
    """
    def run():
        net = cluster.network
        replicas = cluster.replicas_for(key)
        targets = (guard.filter_failover_targets(key, replicas)
                   if guard is not None else replicas)
        for i, node in enumerate(targets):
            last = i == len(targets) - 1
            yield net.send(net.CLIENT, node.node_id)
            result = yield from node.get(key, None if last else deadline_us)
            yield net.send(node.node_id, net.CLIENT)
            if not is_ebusy(result):
                version = data.version(node, key)
                session.observe(key, version)
                return version
        return None

    return sim.process(run())

"""Fastest-replica selection: snitching and C3 (§7.8.3).

Both techniques observe *past* response behaviour and steer new requests to
the replica that looked best.  The paper shows they handle stable imbalance
(a 5-second busy rotation) but not millisecond burstiness: by the time the
ranking reacts, the noise has moved.

* :class:`SnitchStrategy` — Cassandra-like dynamic snitch: per-replica EWMA
  latency, but rankings are only recomputed at a coarse interval.
* :class:`C3Strategy` — adaptive replica selection: score combines EWMA
  latency with a *cubic* penalty on the server queue length piggybacked on
  each response (Suresh et al., NSDI'15), updated per response.
"""

from repro.cluster.strategies.base import Strategy
from repro.errors import EIO


class SnitchStrategy(Strategy):
    """EWMA latency ranking, refreshed every ``ranking_interval_us``."""

    name = "snitch"

    def __init__(self, cluster, alpha=0.3, ranking_interval_us=500_000.0,
                 **kwargs):
        super().__init__(cluster, **kwargs)
        self.alpha = alpha
        self.ranking_interval_us = ranking_interval_us
        self._ewma = {}           # node_id -> latency estimate (µs)
        self._ranking = {}        # node_id -> frozen score used for routing
        self._last_ranking_at = 0.0

    def _score(self, node):
        return self._ranking.get(node.node_id, 0.0)

    def _refresh_ranking(self):
        now = self.sim.now
        if now - self._last_ranking_at >= self.ranking_interval_us:
            self._ranking = dict(self._ewma)
            self._last_ranking_at = now

    def _observe(self, node, latency):
        prev = self._ewma.get(node.node_id)
        if prev is None:
            self._ewma[node.node_id] = latency
        else:
            self._ewma[node.node_id] = (self.alpha * latency
                                        + (1 - self.alpha) * prev)

    def _run(self, key, replicas, ctx):
        # Like Cassandra's dynamic snitch: stay on the natural primary
        # unless its frozen score is noticeably worse than the best
        # alternative (badness threshold), which also avoids herding every
        # client onto one "fastest" node.
        self._refresh_ranking()
        primary = replicas[0]
        best = min(replicas, key=self._score)
        node = primary
        if self._score(primary) > 1.5 * self._score(best) + 5000.0:
            node = best
        start = self.sim.now
        finished, result = yield from self._timed_attempt(node, key, None,
                                                          ctx)
        if finished:
            self._observe(node, self.sim.now - start)
            if result is not EIO:
                return result
            self.eio_failovers += 1
        # Lost RPC or latent read error: fail over to the other replicas.
        others = [n for n in replicas if n is not node] or [node]
        result = yield from self._last_resort(key, others, ctx)
        return result


class C3Strategy(Strategy):
    """Latency EWMA + cubic queue penalty, per-response updates.

    The queue feedback reads each node's ``device.in_device``, so every
    node's device must count its requests in flight, as a disk does; on
    an SSD node, which keeps only chip horizons, a response raises."""

    name = "c3"

    def __init__(self, cluster, alpha=0.5, queue_weight_us=200.0,
                 explore=0.1, **kwargs):
        super().__init__(cluster, **kwargs)
        self.alpha = alpha
        self.queue_weight_us = queue_weight_us
        #: Occasional random picks keep stale scores fresh and curb
        #: herding (C3's rate control plays this role in the real system).
        self.explore = explore
        self._latency = {}
        self._queue = {}
        self._rng = cluster.sim.rng("strategy/c3")

    def _score(self, node):
        lat = self._latency.get(node.node_id, 0.0)
        q = self._queue.get(node.node_id, 0.0)
        return lat + self.queue_weight_us * (1.0 + q) ** 3

    def _observe(self, node, latency):
        nid = node.node_id
        self._latency[nid] = (self.alpha * latency
                              + (1 - self.alpha) * self._latency.get(nid,
                                                                     latency))
        # Queue feedback piggybacked on the response (server-side snapshot).
        q = node.os.scheduler.queued + node.os.device.in_device
        self._queue[nid] = (self.alpha * q
                            + (1 - self.alpha) * self._queue.get(nid, q))

    def _run(self, key, replicas, ctx):
        if self._rng.random() < self.explore:
            node = self._rng.choice(replicas)
        else:
            node = min(replicas, key=self._score)
        start = self.sim.now
        finished, result = yield from self._timed_attempt(node, key, None,
                                                          ctx)
        if finished:
            self._observe(node, self.sim.now - start)
            if result is not EIO:
                return result
            self.eio_failovers += 1
        others = [n for n in replicas if n is not node] or [node]
        result = yield from self._last_resort(key, others, ctx)
        return result

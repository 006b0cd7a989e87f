"""Tied requests (§7.8.2) — the comparator the paper could not build.

Each request is cloned to a second replica after a small delay; both copies
carry the identity of the other, and when one *begins execution* the other
is cancelled.  On Linux the paper found this impossible for block IO: the
device absorbs requests immediately, the begin-execution moment is
invisible, and there is no revocation path.  Our simulator can see the
scheduler's dispatch, so it models begin-execution there: at dispatch into
the disk's device queue (``DiskParams.queue_depth`` deep), not at service
start.  A copy that begins first may still wait behind queued device work
while its twin is revoked, so this comparator is not an upper bound on
what tied requests could achieve with perfect OS support (EXPERIMENTS.md
§7.8.2 gives the measured wait).

Requests and replies traverse the cluster network (and can be lost or
partitioned by the fault plane); the begin-execution signal is modelled as
a reliable side channel once the request has reached its server.
"""

from repro.cluster.strategies.base import Strategy
from repro.errors import EIO
from repro.sim.events import Race


def _began_on_dispatch(req):
    """Scheduler dispatch listener: a tied copy's IO begins execution."""
    began = req.tag.get("tied_began")
    if began is not None:
        began.try_succeed()


class TiedCopy:
    """One copy's server-side handle: its IOs, its revocation, and the
    ``began`` event that fires when it begins execution — at its first
    IO's dispatch, or at the server's answer when no IO dispatches (a
    cache or memtable hit)."""

    __slots__ = ("began", "scheduler", "reqs", "cancelled")

    def __init__(self, sim, node):
        self.began = sim.event()
        self.scheduler = node.os.scheduler
        self.reqs = []
        self.cancelled = False

    def observe(self, req):
        """The read's ``io_observer``: track (or refuse) each new IO."""
        if self.cancelled:
            # The cancel reached the server before this IO existed: the
            # OS never submits it and answers EBUSY.
            req.cancelled = True
            return
        self.reqs.append(req)
        req.tag["tied_began"] = self.began

    def cancel(self):
        """Revoke this copy's IOs that are still queued (EBUSY replies)."""
        self.cancelled = True
        for req in self.reqs:
            if req.dispatch_time is None and not req.cancelled:
                self.scheduler.cancel(req)


class TiedStrategy(Strategy):
    """Delayed clone + cancel-on-begin-execution."""

    name = "tied"

    def __init__(self, cluster, tie_delay_us=1000.0, **kwargs):
        super().__init__(cluster, **kwargs)
        self.tie_delay_us = tie_delay_us
        self._rng = cluster.sim.rng("strategy/tied")
        self.cancellations = 0
        for node in cluster.nodes:
            node.os.scheduler.add_dispatch_listener(_began_on_dispatch)

    def _run(self, key, replicas, ctx):
        node_a = replicas[0]
        node_b = self._rng.choice(replicas[1:])

        tie_a = TiedCopy(self.sim, node_a)
        ev_a = self._attempt(node_a, key, tie=tie_a)
        finished, value = yield Race(self.sim, ev_a, self.tie_delay_us)
        if finished:
            self._note_result(node_a, value)
            if value is not EIO:
                return value
            self.eio_failovers += 1

        self.duplicates += 1
        tie_b = TiedCopy(self.sim, node_b)
        ev_b = self._attempt(node_b, key, tie=tie_b)
        # Whichever copy begins execution first cancels its counterpart.
        began = self.sim.any_of([tie_a.began, tie_b.began])
        limit = ctx.attempt_limit_us(self.sim.now)
        if limit is None:
            idx, _ = yield began
        else:
            if limit <= 0:
                return EIO
            began_finished, raced = yield Race(self.sim, began, limit)
            if not began_finished:
                # Both copies lost / both servers dark: revoke and give up.
                tie_a.cancel()
                tie_b.cancel()
                self._note_timeout(node_a)
                self._note_timeout(node_b)
                return EIO
            idx, _ = raced
        self.cancellations += 1
        (tie_b if idx == 0 else tie_a).cancel()

        # Take the first non-cancelled reply (a cancelled copy reports
        # EBUSY through the normal completion path); bounded by the op
        # context so a lost reply cannot hang the client.
        result = yield from self._first_good([ev_a, ev_b], ctx,
                                             nodes=[node_a, node_b])
        return result

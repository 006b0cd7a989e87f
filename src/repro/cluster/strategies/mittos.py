"""The MittOS client strategy: instant EBUSY failover (§5).

The application attaches the user's deadline to each get(); a busy node
answers EBUSY in microseconds instead of queueing the IO, and the client
retries the next replica immediately — sequential, exceptionless, simple.
The third try disables the deadline (P(all three busy) is tiny, §6), so
users never see IO errors.  The optional wait-time extension (§7.8.1/§8.1)
uses the predicted wait carried *on each EBUSY response* to route the
final try to the least-busy replica instead of the fixed third one.

Fault handling: under an armed fault plane, a lost RPC (message drop or
crashed replica) degrades into a timeout-failover — the strategy treats
the expired attempt exactly like an EBUSY with no hint and moves on, and
the deadline-free last try becomes a bounded retry loop, so MittOS keeps
its "no user-visible errors while a replica can answer" property without
ever hanging on a dead replica.
"""

from repro.cluster.strategies.base import Strategy
from repro.errors import EIO, is_ebusy


class MittosStrategy(Strategy):
    """Sequential EBUSY-driven failover across the three replicas."""

    name = "mittos"

    def __init__(self, cluster, deadline_us, use_wait_hint=False,
                 controller=None, lost_rpc_grace_us=5000.0, **kwargs):
        super().__init__(cluster, **kwargs)
        self.deadline_us = deadline_us
        #: Fault handling: a deadline-tagged attempt answers within
        #: ~deadline (data) or microseconds (EBUSY), so a lost RPC is
        #: declared dead after deadline + this grace instead of the generic
        #: RPC timeout — EBUSY failover speed survives message loss.
        self.lost_rpc_grace_us = lost_rpc_grace_us
        #: §8.1 extension: have EBUSY carry the predicted wait and use it.
        self.use_wait_hint = use_wait_hint
        #: A deadline controller (``SloController``) that tunes the
        #: deadline from feedback (overrides ``deadline_us``).
        self.controller = controller
        self.failovers = 0
        self.all_busy = 0

    @property
    def effective_deadline_us(self):
        if self.controller is not None:
            return self.controller.deadline_us
        return self.deadline_us

    def _run(self, key, replicas, ctx):
        deadline = self.effective_deadline_us
        cap = (deadline + self.lost_rpc_grace_us
               if deadline is not None else None)
        waits = []
        got_ebusy = False
        for node in replicas[:-1]:
            finished, result = yield from self._timed_attempt(
                node, key, deadline, ctx, cap_us=cap)
            if finished and not is_ebusy(result) and result is not EIO:
                if self.controller is not None:
                    self.controller.record(got_ebusy)
                return result
            self.failovers += 1
            if finished and is_ebusy(result):
                got_ebusy = True
                waits.append(self._wait_hint(result))
                self._note_decision("ebusy-failover", node=node.node_id,
                                    predicted_wait=waits[-1])
            else:
                # Lost RPC / crashed node / latent read error: treat like
                # an EBUSY with no hint and fail over.
                if finished and result is EIO:
                    self.eio_failovers += 1
                waits.append(float("inf"))
        if self.controller is not None:
            self.controller.record(True)

        if self.use_wait_hint:
            # All earlier replicas said busy: ask the last one too, then
            # fall back to whichever predicted the shortest wait.
            last = replicas[-1]
            finished, result = yield from self._timed_attempt(
                last, key, deadline, ctx, cap_us=cap)
            if finished and not is_ebusy(result) and result is not EIO:
                return result
            self.failovers += 1
            if finished and is_ebusy(result):
                waits.append(self._wait_hint(result))
            else:
                if finished and result is EIO:
                    self.eio_failovers += 1
                waits.append(float("inf"))
            self.all_busy += 1
            best = min(range(len(replicas)), key=lambda i: waits[i])
            self._note_decision("wait-hint-route", key=key, best=best)
            order = [replicas[best]] + [node for i, node in
                                        enumerate(replicas) if i != best]
            result = yield from self._last_resort(key, order, ctx)
            return result

        # Default: the last try disables the deadline — never an IO error
        # while some replica can still answer (bounded when faults are on).
        self.all_busy += 1
        self._note_decision("all-busy", key=key)
        order = [replicas[-1]] + list(replicas[:-1])
        result = yield from self._last_resort(key, order, ctx)
        return result

    @staticmethod
    def _wait_hint(result):
        """Predicted wait carried on a rich EBUSY (richer-response, §8.1).

        Per-request by construction: the hint rides the response itself,
        so concurrent gets can never read each other's value.
        """
        wait = getattr(result, "predicted_wait", None)
        return wait if wait is not None else float("inf")

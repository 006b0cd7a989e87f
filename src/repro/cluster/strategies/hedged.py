"""Hedged requests (§7.2, after Dean & Barroso's "The Tail at Scale").

A secondary request is sent only after the first has been outstanding
longer than the expected p95 latency, limiting extra load to ~5% — but the
slow 5% must *wait out* the hedge delay before help starts, which is the
waiting MittOS eliminates.
"""

from repro.cluster.strategies.base import Strategy
from repro.errors import EIO
from repro.sim.events import Race


class HedgedStrategy(Strategy):
    """Wait p95, then duplicate to another replica; first response wins."""

    name = "hedged"

    def __init__(self, cluster, hedge_delay_us, **kwargs):
        super().__init__(cluster, **kwargs)
        self.hedge_delay_us = hedge_delay_us
        self._rng = cluster.sim.rng("strategy/hedged")

    def _run(self, key, replicas, ctx):
        first_node = replicas[0]
        first = self._attempt(first_node, key)
        finished, value = yield Race(self.sim, first, self.hedge_delay_us)
        if finished:
            self._note_result(first_node, value)
            if value is not EIO:
                return value
            self.eio_failovers += 1
        # Hedge fires: duplicate to one of the other replicas (the first
        # try is NOT cancelled; both keep running).  Bounded by the op
        # context, so two lost RPCs end in EIO instead of a hang.
        self.duplicates += 1
        second_node = self._rng.choice(replicas[1:])
        second = self._attempt(second_node, key)
        result = yield from self._first_good([first, second], ctx,
                                             nodes=[first_node, second_node])
        return result

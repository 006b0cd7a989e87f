"""YCSB-like closed-loop clients issuing 1 KB get() operations (§7).

A client repeatedly issues one *user request* and waits for it to complete:
with scale factor S (§7.3), a user request is S parallel get()s to different
keys and completes when *all* S sub-requests have (tail amplified by scale).
Latencies recorded are client-observed, like all the paper's latency graphs.
"""

from repro.errors import EIO, is_ebusy
from repro.metrics.latency import LatencyRecorder


class YcsbClient:
    """One closed-loop client bound to a strategy."""

    def __init__(self, sim, strategy, keydist, recorder, n_ops,
                 scale_factor=1, think_time_us=1000.0, start_delay_us=0.0):
        self.sim = sim
        self.strategy = strategy
        self.keydist = keydist
        self.recorder = recorder
        self.n_ops = n_ops
        self.scale_factor = scale_factor
        self.think_time_us = think_time_us
        self.start_delay_us = start_delay_us

    def run(self):
        """Start the client; returns its process event."""
        return self.sim.process(self._loop())

    def _loop(self):
        if self.start_delay_us:
            yield self.start_delay_us
        sim = self.sim
        recorder = self.recorder
        think = self.think_time_us
        if self.scale_factor == 1:
            # Per-op diet for the common S=1 case: one get() per user
            # request needs no key set, no sub-event list and no AllOf
            # fan-in — wait on the get itself.  The AllOf wrapper adds no
            # scheduled kernel events, so this path is digest-identical.
            next_key = self.keydist.next_key
            get = self.strategy.get
            for _ in range(self.n_ops):
                start = sim.now
                result = yield get(next_key())
                recorder.add(sim.now - start)
                if result is EIO:
                    recorder.count("eio")
                elif is_ebusy(result):
                    recorder.count("ebusy_leak")
                if think:
                    yield think
            return len(recorder)
        for _ in range(self.n_ops):
            keys = {self.keydist.next_key() for _ in range(self.scale_factor)}
            start = sim.now
            results = yield sim.all_of(
                [self.strategy.get(key) for key in keys])
            recorder.add(sim.now - start)
            for result in results:
                if result is EIO:
                    recorder.count("eio")
                elif is_ebusy(result):
                    recorder.count("ebusy_leak")
            if think:
                yield think
        return len(recorder)


def run_ycsb(sim, strategy, keydists, n_clients, n_ops, scale_factor=1,
             think_time_us=1000.0, name="", stagger_us=0.0):
    """Launch ``n_clients`` clients; returns (recorder, [client processes]).

    Every client drives the one ``strategy`` (clients share it — they are
    processes, not threads).  ``keydists`` is one key picker per client.
    ``stagger_us`` delays client ``i``'s first op by ``i * stagger_us``:
    real clients never start in lockstep, and synchronized starts make the
    first round of shared RNG-stream draws (network hop latencies)
    tie-order-assigned — see ``python -m repro.analysis check``.
    """
    recorder = LatencyRecorder(name)
    processes = []
    for i in range(n_clients):
        client = YcsbClient(sim, strategy, keydists[i], recorder,
                            n_ops, scale_factor, think_time_us,
                            start_delay_us=i * stagger_us)
        processes.append(client.run())
    return recorder, processes

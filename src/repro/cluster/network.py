"""One-hop datacenter network (§3.3).

Failing over to another machine costs one extra network hop — 0.3 ms in the
paper's testbed and EC2 (or 10 µs with Infiniband).  The network model is a
per-message latency draw; contention-free, since the paper attributes its
residual network tail to uncontrolled Emulab noise, which we expose as an
optional jitter term.

Messages are observable: while a recorder is active, every :meth:`send`
records ``rpc.send`` (or ``rpc.drop`` when the fault plane eats the
datagram), and delivery is recorded as ``rpc.recv``.  ``dropped`` counts
the lost messages.
"""

from repro.obs.events import RPC_DROP, RPC_RECV, RPC_SEND


class Network:
    """Hop-latency source for client<->node messaging."""

    #: Endpoint id for "the client side" in :meth:`send` (nodes are >= 0).
    CLIENT = -1

    def __init__(self, sim, hop_us=300.0, jitter_us=15.0,
                 tail_prob=0.0, tail_extra_us=0.0):
        self.sim = sim
        self.hop_us = hop_us
        self.jitter_us = jitter_us
        #: Optional heavy-tail component (the paper's ~0.08% Emulab tail).
        self.tail_prob = tail_prob
        self.tail_extra_us = tail_extra_us
        #: Installed by ``FaultPlane.arm``; None = fail-free network.
        self.fault_plane = None
        self.bus = sim.bus
        self.dropped = 0
        self._rng = sim.rng("network")

    def hop_latency(self):
        latency = max(1.0, self._rng.gauss(self.hop_us, self.jitter_us))
        if self.tail_prob and self._rng.random() < self.tail_prob:
            latency += self._rng.uniform(0, self.tail_extra_us)
        return latency

    def send(self, src, dst):
        """One directed message from ``src`` to ``dst`` as a *waitable* —
        an :class:`~repro.sim.events.Event`, or a plain hop-delay number
        (both are valid process yields; all call sites yield the result).

        Delivers after one hop, unless the fault plane decides the message
        is lost (loss rate or partition) — then the returned event never
        fires and only the sender's own timeout can save it, exactly like
        a dropped datagram.

        The delivered fast path returns the bare latency so the yielding
        process takes the kernel's fused timeout path (no timer Event per
        message); a recorder in place gets the full ``rpc.recv`` event and
        therefore the evented slow path.
        """
        bus = self.bus
        if self.fault_plane is not None and \
                self.fault_plane.drop_message(src, dst):
            self.dropped += 1
            if bus.recorder.active:
                bus.record(RPC_DROP, {"src": src, "dst": dst})
            return self.sim.event()  # lost: never fires
        latency = self.hop_latency()
        if bus.recorder.active:
            bus.record(RPC_SEND, {"src": src, "dst": dst,
                                  "latency": latency})
            ev = self.sim.timeout(latency)
            ev.add_callback(lambda _ev: bus.record(
                RPC_RECV, {"src": src, "dst": dst, "latency": latency}))
            return ev
        return latency

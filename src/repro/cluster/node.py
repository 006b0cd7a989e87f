"""A storage node: OS + engine + request handlers + optional CPU model.

The node is where server-side costs live: request-handler CPU time (bounded
by hardware threads — the effect behind §7.5's hedge-induced CPU contention)
and the exceptionless retry path (§5: C++ exception handling adds 200 µs;
the paper built a direct retry path instead, which is what EBUSY results
model here — no exception cost).

Handlers are generators, not processes: ``get`` and ``put`` return a
generator that the caller's process drives with ``yield from``, and the
handler drives the engine the same way, so a sequential read runs
client → node → engine → OS in the one process of its client op.
"""

from repro.errors import EIO, is_ebusy
from repro.obs.events import FAULT


class StorageNode:
    """One machine running a data-store process over the simulated OS."""

    def __init__(self, sim, node_id, os, engine, cpu=None,
                 handler_cpu_us=60.0):
        self.sim = sim
        self.node_id = node_id
        self.os = os
        self.engine = engine
        #: None = uncontended CPU; else the machine's hardware-thread
        #: semaphore, shared by the nodes it hosts (§7.5).
        self.cpu = cpu
        self.handler_cpu_us = handler_cpu_us
        self.handled = 0
        self.ebusy_sent = 0
        self.read_errors = 0
        #: Crash-stop state (FaultPlane): a down node swallows requests, and
        #: replies produced across a crash epoch are lost.
        self.up = True
        self.epoch = 0
        self.crashes = 0
        #: Gray-failure knob: multiplies request-handler CPU time.
        self.cpu_slow_factor = 1.0
        #: Installed by ``FaultPlane.arm``; None = no latent read errors.
        self.fault_plane = None

    # -- crash-stop faults (FaultPlane) -----------------------------------
    def crash(self):
        """Crash-stop: drop in-flight replies, reject new work until restart.

        In-simulator state (engine data, caches, device queues) is kept —
        the crash models the *process/machine* going dark, and a restart
        recovers from durable state instantly.  Device work already queued
        keeps running; its replies are discarded via the epoch check.
        """
        if not self.up:
            return
        self.up = False
        self.epoch += 1
        self.crashes += 1
        bus = self.sim.bus
        if bus.recorder.active:
            bus.record(FAULT, {"kind": "crash", "node": self.node_id,
                               "epoch": self.epoch})

    def restart(self):
        """Bring a crashed node back (same data, new epoch already set)."""
        self.up = True
        bus = self.sim.bus
        if bus.recorder.active:
            bus.record(FAULT, {"kind": "restart", "node": self.node_id,
                               "epoch": self.epoch})

    def get(self, key, deadline=None, priority=None):
        """Server-side get as a generator: returns EBUSY, EIO or a record.

        The caller drives it with ``yield from`` inside its own process;
        wrap it in ``sim.process`` to wait on it as an event.
        ``priority`` — if given — is the CFQ priority the read's IOs carry
        (the SLO-control work tier; admission guards shed high tiers
        first).  None keeps the engine default.
        """
        # A plain function, not a generator function: the repo benchmark
        # counts node gets as calls to it, and a profiler counts every
        # resume of a generator function as one more call.
        return self._handle_get(key, deadline, priority)

    def put(self, key):
        """Server-side put as a generator (buffered write path, §7.8.6)."""
        self.handled += 1
        yield self.handler_cpu_us * self.cpu_slow_factor
        result = yield from self.engine.put(key)
        return result

    def _handle_get(self, key, deadline, priority):
        self.handled += 1
        if self.cpu is not None:
            yield self.cpu.acquire()
        yield self.handler_cpu_us * self.cpu_slow_factor
        try:
            result = yield from self.engine.get(key, deadline,
                                                priority=priority)
        finally:
            if self.cpu is not None:
                self.cpu.release()
        if is_ebusy(result):
            self.ebusy_sent += 1
        elif self.fault_plane is not None and \
                self.fault_plane.read_error(self.node_id):
            # Latent sector error: the engine "read" garbage -> EIO.
            self.read_errors += 1
            return EIO
        return result

"""A storage node: OS + engine + request handlers + optional CPU model.

The node is where server-side costs live: request-handler CPU time (bounded
by hardware threads — the effect behind §7.5's hedge-induced CPU contention)
and the exceptionless retry path (§5: C++ exception handling adds 200 µs;
the paper built a direct retry path instead, which is what EBUSY results
model here — no exception cost).
"""

from repro.errors import EIO, is_ebusy
from repro.obs.events import FAULT
from repro.sim.resources import Semaphore


class StorageNode:
    """One machine running a data-store process over the simulated OS."""

    def __init__(self, sim, node_id, os, engine, cpu_slots=None,
                 handler_cpu_us=60.0):
        self.sim = sim
        self.node_id = node_id
        self.os = os
        self.engine = engine
        #: None = uncontended CPU; else hardware-thread semaphore (§7.5).
        self.cpu = Semaphore(sim, cpu_slots) if cpu_slots else None
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
        self._tied_listener_installed = False

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

    def get(self, key, deadline=None, io_observer=None, priority=None):
        """Server-side get as a process event: value is EBUSY or a record.

        ``priority`` — if given — is the CFQ priority the read's IOs carry
        (the SLO-control work tier; admission guards shed high tiers
        first).  None keeps the engine default.
        """
        return self.sim.process(
            self._handle_get(key, deadline, io_observer, priority))

    def get_cancellable(self, key, deadline=None):
        """(event, cancel_fn, began_event) for tied requests (§7.8.2).

        ``began_event`` fires when this get's IO begins execution (is
        dispatched into the device); ``cancel_fn()`` revokes the IO while it
        is still queued.  The paper could not build this on Linux because
        the device queue is invisible to the OS; the simulator can, so tied
        requests serve as an upper-bound comparator.
        """
        began = self.sim.event()
        state = {"reqs": [], "cancelled": False}

        def io_observer(req):
            state["reqs"].append(req)
            if state["cancelled"] and req.dispatch_time is None:
                self.os.scheduler.cancel(req)
                return
            req.tag["tied_began"] = began
            # Begin-execution signal: fires at dispatch via the scheduler.

        self._install_tied_listener()

        def cancel():
            state["cancelled"] = True
            for req in state["reqs"]:
                if req.dispatch_time is None and not req.cancelled:
                    self.os.scheduler.cancel(req)

        ev = self.sim.process(self._handle_get(key, deadline, io_observer))
        # A cache hit / memtable hit never dispatches an IO; treat the
        # reply itself as begin-execution then.
        ev.add_callback(lambda _: began.try_succeed(self.node_id))
        return ev, cancel, began

    def _install_tied_listener(self):
        """One shared dispatch listener fires every tied begin signal."""
        if self._tied_listener_installed:
            return
        self._tied_listener_installed = True

        def on_dispatch(req):
            ev = req.tag.get("tied_began")
            if ev is not None:
                ev.try_succeed(self.node_id)

        self.os.scheduler.add_dispatch_listener(on_dispatch)

    def put(self, key):
        """Server-side put (buffered write path, §7.8.6)."""
        return self.sim.process(self._handle_put(key))

    def _handle_put(self, key):
        self.handled += 1
        yield self.handler_cpu_us * self.cpu_slow_factor
        result = yield self.sim.process(self.engine.put(key))
        return result

    def _handle_get(self, key, deadline, io_observer=None, priority=None):
        self.handled += 1
        if self.cpu is not None:
            yield self.cpu.acquire()
        yield self.handler_cpu_us * self.cpu_slow_factor
        try:
            result = yield self.sim.process(
                self.engine.get(key, deadline, io_observer=io_observer,
                                priority=priority))
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

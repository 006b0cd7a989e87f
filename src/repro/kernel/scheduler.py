"""IO scheduler base: queueing above the device, dispatch into it.

A scheduler owns the OS-level queues (noop's FIFO, CFQ's service trees) and
dispatches into the device whenever the device has room, mirroring the block
layer feeding NCQ slots.  Completion and cancellation flow back through
request callbacks.

Observation: the MittOS predictors follow the scheduler's own queue events
(§4.1-§4.2) through hooks registered with the ``add_*_listener`` methods.
Each lifecycle edge (submit, dispatch, complete) runs its hooks in
registration order, then — when a recorder is active — records the edge
on the simulator's :class:`~repro.obs.bus.TraceBus`; cancel is recorded
only.  ``submitted`` and ``cancelled`` are plain counters bumped at the
same edges.
"""

from repro.obs.events import (IO_CANCEL, IO_COMPLETE, IO_DISPATCH, IO_SUBMIT,
                              request_fields)


class IOScheduler:
    """Base class: subclasses implement the queueing discipline."""

    def __init__(self, sim, device):
        self.sim = sim
        self.device = device
        self.bus = sim.bus
        #: Device label stamped on recorded lifecycle events so trace
        #: consumers (accuracy joiner, metrics registry) can attribute a
        #: request to its device/node without object references.
        self._dev_label = device.name
        device.add_drain_callback(self._dispatch)
        self.submitted = 0
        self.cancelled = 0
        self._submit_listeners = []
        self._dispatch_listeners = []
        self._complete_listeners = []

    # -- observation hooks ----------------------------------------------------
    def add_submit_listener(self, fn):
        """``fn(req)`` runs when a request enters the scheduler queues."""
        self._submit_listeners.append(fn)

    def add_dispatch_listener(self, fn):
        """``fn(req)`` runs when a request enters the device."""
        self._dispatch_listeners.append(fn)

    def add_complete_listener(self, fn):
        """``fn(req)`` runs when a request completes at the device."""
        self._complete_listeners.append(fn)

    # -- public API ---------------------------------------------------------
    def submit(self, req):
        """Queue ``req`` and dispatch as far as device slots allow."""
        req.submit_time = self.sim.now
        self._enqueue(req)
        self.submitted += 1
        bus = self.bus
        for fn in self._submit_listeners:
            fn(req)
        if bus.recorder.active:
            bus.record(IO_SUBMIT,
                       dict(request_fields(req), dev=self._dev_label))
        self._dispatch()

    def cancel(self, req):
        """Remove a still-queued request (MittCFQ's late rejection).

        Returns True if the request was still in scheduler queues and has
        been removed; False if it already reached the device (too late).
        """
        if self._remove(req):
            req.cancelled = True
            self.cancelled += 1
            bus = self.bus
            if bus.recorder.active:
                bus.record(IO_CANCEL,
                           dict(request_fields(req), dev=self._dev_label))
            req.finish(self.sim.now)
            return True
        return False

    def queued_requests(self):
        """Snapshot of requests still inside scheduler queues."""
        raise NotImplementedError

    @property
    def queued(self):
        return len(self.queued_requests())

    # -- discipline hooks -----------------------------------------------------
    def _enqueue(self, req):
        raise NotImplementedError

    def _next(self):
        """Pop the next request to dispatch, or None."""
        raise NotImplementedError

    def _remove(self, req):
        """Remove ``req`` from the queues; True if found."""
        raise NotImplementedError

    # -- dispatch loop ----------------------------------------------------------
    def _dispatch(self):
        while self.device.has_room():
            req = self._next()
            if req is None:
                return
            if req.cancelled:
                continue
            bus = self.bus
            for fn in self._dispatch_listeners:
                fn(req)
            if bus.recorder.active:
                bus.record(IO_DISPATCH,
                           dict(request_fields(req), dev=self._dev_label))
            req.add_callback(self._on_complete)
            self.device.submit(req)

    def _on_complete(self, req):
        bus = self.bus
        for fn in self._complete_listeners:
            fn(req)
        if bus.recorder.active:
            fields = request_fields(req)
            fields["latency"] = req.latency
            fields["dev"] = self._dev_label
            bus.record(IO_COMPLETE, fields)

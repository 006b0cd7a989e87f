"""Generator-based simulation processes.

A process wraps a generator that yields *waitables*:

* an :class:`~repro.sim.events.Event` (including other processes),
* a plain number, shorthand for ``sim.timeout(number)``.

The process itself is an event that succeeds with the generator's return
value, so processes compose (``yield other_process``).  Purely
sequential layers need no process of their own: they are sub-generators
the caller drives with ``yield from``, so a process is built only where
something races or fans out and therefore needs an event to wait on.

Fused timeout fast path: a plain-number yield schedules the process's
own ``_step`` directly instead of allocating a timer Event (no callback
list, no ``_resume`` hop).  A process runs to completion: nothing
abandons one midway, so it keeps no record of what it waits on.
"""

from repro.sim.events import Event


class Process(Event):
    """Drives a generator coroutine inside the simulator."""

    __slots__ = ("_gen", "_send", "_step_cb", "_resume_cb")

    def __init__(self, sim, gen):
        # Event.__init__ inlined: every client op and every raced or
        # fanned-out attempt builds one, making this a hot constructor.
        self.sim = sim
        self._done = False
        self._ok = False
        self._value = None
        self._exc = None
        self._callbacks = []
        self._gen = gen
        self._send = gen.send
        # Pre-bound callbacks: each bound method is allocated once per
        # process instead of once per yield/schedule.
        self._step_cb = self._step
        self._resume_cb = self._resume
        # First step runs asynchronously at the current time so that the
        # creator can register callbacks before any code executes.
        sim.schedule(0.0, self._step_cb, None, None)

    # -- internal ----------------------------------------------------------
    def _step(self, value, exc):
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as err:
            self.fail(err)
            return
        cls = type(target)
        if cls is not float and cls is not int:
            if isinstance(target, Event):
                if target._done:
                    self._resume(target)
                else:
                    target._callbacks.append(self._resume_cb)
                return
            if not isinstance(target, (int, float)):
                err = TypeError(f"process yielded non-waitable {target!r}")
                self._gen.close()
                self.fail(err)
                return
        # Fused timeout fast path: no Event, no _resume hop.
        self.sim.schedule(target, self._step_cb, None, None)

    def _resume(self, event):
        if event._ok:
            self._step(event._value, None)
        else:
            self.sim.defuse(event)
            self._step(None, event._exc)

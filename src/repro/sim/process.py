"""Generator-based simulation processes.

A process wraps a generator that yields *waitables*:

* an :class:`~repro.sim.events.Event` (including other processes),
* a plain number, shorthand for ``sim.timeout(number)``.

The process itself is an event that succeeds with the generator's return
value, so processes compose (``yield other_process``).

Fused timeout fast path: a plain-number yield schedules the process's
own ``_timer_fire`` callback directly instead of allocating a timer
Event (no callback list, no ``_resume`` hop).  ``Process.interrupt``
cancels the fused timer's heap entry outright (and detaching from a
``Timeout`` event cancels its handle), so interrupts never leak live
timers.
"""

from repro.sim.events import Event, Timeout


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """Drives a generator coroutine inside the simulator."""

    __slots__ = ("_gen", "_send", "_waiting_on", "_step_cb", "_resume_cb",
                 "_timer_cb")

    def __init__(self, sim, gen):
        # Event.__init__ inlined: strategies spawn a process per attempt,
        # making this one of the hottest constructors in a run.
        self.sim = sim
        self._done = False
        self._ok = False
        self._value = None
        self._exc = None
        self._callbacks = []
        self._gen = gen
        self._send = gen.send
        self._waiting_on = None
        # Pre-bound callbacks: each bound method is allocated once per
        # process instead of once per yield/schedule.
        self._step_cb = self._step
        self._resume_cb = self._resume
        self._timer_cb = None  # bound lazily: most processes never sleep
        # First step runs asynchronously at the current time so that the
        # creator can register callbacks before any code executes.
        sim.schedule(0.0, self._step_cb, None, None)

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self._done:
            return
        waited = self._waiting_on
        self._waiting_on = None
        if waited is not None:
            if isinstance(waited, Event):
                # Detach: the old target may still trigger later; ignore it.
                waited._detach(self)
            else:
                # Fused plain-delay timer: drop its heap entry outright.
                waited.cancel()
        self.sim.schedule(0.0, self._step_cb, None, Interrupt(cause))

    # -- internal ----------------------------------------------------------
    def _step(self, value, exc):
        if self._done:
            return
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as intr:
            self.fail(intr)
            return
        except Exception as err:
            self.fail(err)
            return
        if isinstance(target, Event):
            self._waiting_on = target
            target.add_callback(self._resume_cb)
            return
        if isinstance(target, (int, float)):
            # Fused timeout fast path: no Event, no _resume hop.  The
            # handle is the waited-on object so interrupt() can cancel it.
            timer_cb = self._timer_cb
            if timer_cb is None:
                timer_cb = self._timer_cb = self._timer_fire
            self._waiting_on = self.sim.schedule(target, timer_cb)
            return
        err = TypeError(f"process yielded non-waitable {target!r}")
        self._gen.close()
        self.fail(err)

    def _timer_fire(self):
        self._waiting_on = None
        self._step(None, None)

    def _resume(self, event):
        if self._waiting_on is not event:
            return  # stale wake-up after an interrupt
        self._waiting_on = None
        if event.ok:
            self._step(event._value, None)
        else:
            self.sim.defuse(event)
            self._step(None, event.exception)


def _event_detach(self, process):
    """Remove a process resume callback (helper injected onto Event)."""
    self._callbacks = [
        cb for cb in self._callbacks
        if getattr(cb, "__self__", None) is not process
    ]


def _timeout_detach(self, process):
    """Timeout detach also cancels the timer when nobody is left waiting.

    Without this, interrupting a process waiting on ``sim.timeout(d)``
    left the scheduled handle live in the heap until it fired (observed
    as a spurious kernel event and a pinned entry for up to ``d`` µs).
    """
    _event_detach(self, process)
    if not self._callbacks and self._handle is not None:
        self._handle.cancel()
        self._handle = None


# Event needs a detach hook for Process.interrupt; define it here to keep
# events.py free of process knowledge.
Event._detach = _event_detach
Timeout._detach = _timeout_detach

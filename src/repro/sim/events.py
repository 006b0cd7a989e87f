"""One-shot events and combinators for the DES kernel."""

from repro.errors import SimulationError


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event is *pending* until :meth:`succeed` or :meth:`fail` is called,
    after which its ``value`` (or ``exception``) is frozen and all registered
    callbacks run immediately, in registration order.
    """

    __slots__ = ("sim", "_done", "_ok", "_value", "_exc", "_callbacks")

    def __init__(self, sim):
        self.sim = sim
        self._done = False
        self._ok = False
        self._value = None
        self._exc = None
        self._callbacks = []

    # -- state ------------------------------------------------------------
    @property
    def triggered(self):
        """Whether the event already succeeded or failed."""
        return self._done

    @property
    def ok(self):
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self):
        """The success value; raises if the event failed or is pending."""
        if not self._done:
            raise SimulationError("event value read before trigger")
        if not self._ok:
            raise self._exc
        return self._value

    @property
    def exception(self):
        """The failure exception, or None."""
        return self._exc

    # -- triggering --------------------------------------------------------
    def succeed(self, value=None):
        """Trigger the event successfully with ``value``."""
        if self._done:
            raise SimulationError("event triggered twice")
        self._done = True
        self._ok = True
        self._value = value
        self._run_callbacks()
        return self

    def try_succeed(self, value=None):
        """Like :meth:`succeed` but a no-op if already triggered.

        Useful for races (e.g. a timeout vs. a completion) where losing the
        race is expected.
        """
        if not self._done:
            self.succeed(value)
        return self

    def fail(self, exc):
        """Trigger the event with an exception."""
        if self._done:
            raise SimulationError("event triggered twice")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._done = True
        self._ok = False
        self._exc = exc
        if not self._callbacks:
            # Nobody is listening: surface the crash instead of losing it.
            self.sim._report_crash(self, exc)
        self._run_callbacks()
        return self

    def add_callback(self, fn):
        """Run ``fn(event)`` when triggered (immediately if already done)."""
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _run_callbacks(self):
        # The shared empty tuple (not a fresh list) is safe as the "done"
        # state: add_callback never appends once _done is set.
        callbacks = self._callbacks
        self._callbacks = ()
        for fn in callbacks:
            fn(self)


class Timeout(Event):
    """A timer event that knows its own scheduled :class:`Handle`.

    Produced by ``Simulator.timeout``.  Carrying the handle lets the
    last waiter's detach (``Process.interrupt``) cancel the heap entry
    instead of leaking a live timer that fires into the void — and lets
    the fired path drop the handle reference so no cycle outlives the
    timer.
    """

    __slots__ = ("_handle",)

    def __init__(self, sim):
        super().__init__(sim)
        self._handle = None

    def _fire(self, value=None):
        self._handle = None
        self.try_succeed(value)


class Race(Event):
    """Fused ``any_of([event, sim.timeout(...)])``: one event, one timer.

    Succeeds with ``(0, value)`` when ``event`` succeeds first, or
    ``(1, timeout_value)`` when the timer fires first — the exact value
    shape of the AnyOf it replaces.  The losing timer's heap entry is
    cancelled, and a *failing* child is ignored (like AnyOf with a
    never-failing timer sibling: the timeout resolves the race).

    This is the strategy layer's per-RPC bounding primitive; fusing it
    saves a timer Event, an AnyOf (with its index dict and two callback
    registrations) and their resolution hops on every bounded attempt.
    """

    __slots__ = ("_handle",)

    def __init__(self, sim, event, timeout_us, timeout_value=None):
        super().__init__(sim)
        self._handle = sim.schedule(timeout_us, self._fire_timeout,
                                    timeout_value)
        event.add_callback(self._on_event)

    def _fire_timeout(self, value):
        self._handle = None
        if not self._done:
            self.succeed((1, value))

    def _on_event(self, ev):
        if self._done or not ev.ok:
            return
        handle = self._handle
        if handle is not None:
            handle.cancel()
            self._handle = None
        self.succeed((0, ev._value))


class AllOf(Event):
    """Succeeds with a list of values once every child event has succeeded.

    Fails as soon as any child fails (first failure wins).

    Allocation diet: children share ONE bound-method callback and an
    event -> index dict, instead of one closure per child; the closure
    fallback only remains for the degenerate duplicate-children case
    (where one event must report under several indices).
    """

    __slots__ = ("_pending", "_values", "_index")

    def __init__(self, sim, events):
        super().__init__(sim)
        events = list(events)
        n = len(events)
        self._pending = n
        self._values = [None] * n
        if not n:
            self.succeed([])
            return
        index = {}
        for i, ev in enumerate(events):
            index[ev] = i
        if len(index) == n:
            self._index = index
            callback = self._on_child_event
            for ev in events:
                ev.add_callback(callback)
        else:
            self._index = None
            for i, ev in enumerate(events):
                # repro: allow[DET016] cold fallback: duplicate children
                ev.add_callback(lambda ev, i=i: self._on_child(i, ev))

    def _on_child_event(self, ev):
        self._on_child(self._index[ev], ev)

    def _on_child(self, i, ev):
        if self._done:
            return
        if not ev.ok:
            self.fail(ev.exception)
            return
        self._values[i] = ev._value
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._values)


class AnyOf(Event):
    """Succeeds with ``(index, value)`` of the first child that succeeds.

    Fails only if *all* children fail (with the last failure).
    """

    __slots__ = ("_pending", "_index")

    def __init__(self, sim, events):
        super().__init__(sim)
        events = list(events)
        n = len(events)
        if not n:
            raise ValueError("AnyOf requires at least one event")
        self._pending = n
        index = {}
        for i, ev in enumerate(events):
            index[ev] = i
        if len(index) == n:
            self._index = index
            callback = self._on_child_event
            for ev in events:
                ev.add_callback(callback)
        else:
            self._index = None
            for i, ev in enumerate(events):
                # repro: allow[DET016] cold fallback: duplicate children
                ev.add_callback(lambda ev, i=i: self._on_child(i, ev))

    def _on_child_event(self, ev):
        self._on_child(self._index[ev], ev)

    def _on_child(self, i, ev):
        if self._done:
            return
        if ev.ok:
            self.succeed((i, ev._value))
            return
        self._pending -= 1
        if self._pending == 0:
            self.fail(ev.exception)

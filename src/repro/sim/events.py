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
        # The shared empty tuple (not a fresh list) is safe as the "done"
        # state: nothing appends once _done is set.
        callbacks = self._callbacks
        self._callbacks = ()
        for fn in callbacks:
            fn(self)
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
        callbacks = self._callbacks
        self._callbacks = ()
        if not callbacks:
            # Nobody is listening: surface the crash instead of losing it.
            self.sim._report_crash(self, exc)
        for fn in callbacks:
            fn(self)
        return self

    def add_callback(self, fn):
        """Run ``fn(event)`` when triggered (immediately if already done)."""
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)


class Race(Event):
    """Fused ``any_of([event, sim.timeout(...)])``: one event, one timer.

    Succeeds with ``(True, value)`` when ``event`` succeeds first, or
    ``(False, None)`` when the timer fires first.  The losing timer's
    heap entry is cancelled, and a *failing* child is ignored (like AnyOf
    with a never-failing timer sibling: the timeout resolves the race).

    This is the strategy layer's bounded wait on one RPC or fan-out;
    fusing it saves a timer Event, an AnyOf (with its index dict and two
    callback registrations) and their resolution hops on every bounded
    attempt.
    """

    __slots__ = ("_handle",)

    def __init__(self, sim, event, timeout_us):
        super().__init__(sim)
        self._handle = sim.schedule(timeout_us, self._fire_timeout)
        event.add_callback(self._on_event)

    def _fire_timeout(self):
        if not self._done:
            self.succeed((False, None))

    def _on_event(self, ev):
        if self._done or not ev.ok:
            return
        self.sim.cancel(self._handle)
        self.succeed((True, ev._value))


def _child_index(events):
    """Event -> position of a combinator's children; they must be
    distinct, since one callback reports each child under its index."""
    index = {ev: i for i, ev in enumerate(events)}
    if len(index) != len(events):
        raise ValueError("combinator children must be distinct events")
    return index


class AllOf(Event):
    """Succeeds with a list of values once every child event has succeeded.

    Fails as soon as any child fails (first failure wins).

    Allocation diet: children share ONE bound-method callback and an
    event -> index dict instead of one closure per child.
    """

    __slots__ = ("_pending", "_values", "_index")

    def __init__(self, sim, events):
        super().__init__(sim)
        events = list(events)
        n = len(events)
        self._pending = n
        self._values = [None] * n
        self._index = _child_index(events)
        if not n:
            self.succeed([])
            return
        callback = self._on_child
        for ev in events:
            ev.add_callback(callback)

    def _on_child(self, ev):
        if self._done:
            return
        if not ev.ok:
            self.fail(ev.exception)
            return
        self._values[self._index[ev]] = ev._value
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
        self._index = _child_index(events)
        callback = self._on_child
        for ev in events:
            ev.add_callback(callback)

    def _on_child(self, ev):
        if self._done:
            return
        if ev.ok:
            self.succeed((self._index[ev], ev._value))
            return
        self._pending -= 1
        if self._pending == 0:
            self.fail(ev.exception)

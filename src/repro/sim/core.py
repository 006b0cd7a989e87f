"""The simulator: event heap, clock, and deterministic RNG streams.

Hot-loop layout: the heap holds slim ``(time, tie, seq, handle)``
tuples, so every heap comparison is a C-level tuple compare — ``seq`` is
unique, so ordering never falls through to the :class:`Handle` payload.
:meth:`Simulator.run` and :meth:`Simulator.run_until` are thin wrappers
over one loop, ``_loop``, with the heap, ``heappop`` and the sanitizer
hoisted into locals; the paranoid sanitizer is its only per-event
observer.  None of this is part of the determinism contract, which is
behavioural: ``tests/test_kernel_equivalence.py`` pins bus digests and
per-stream RNG draw counts, not callback names or event counts.
"""

import hashlib
import heapq
import math
import random

from repro.errors import ProcessCrashed, SchedulingInPastError, SimulationError
from repro.obs.bus import TraceBus, default_paranoid
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.sanitizer import CountingRandom, ReplaySanitizer


class Handle:
    """A scheduled callback; :meth:`cancel` makes it a no-op.

    The heap entry is the ``(time, tie, seq, handle)`` tuple, not the
    handle itself; the handle carries the payload (callback + args) and
    the cancellation flag the run loop checks on pop.
    """

    __slots__ = ("time", "tie", "seq", "fn", "args", "cancelled")

    def __init__(self, time, tie, seq, fn, args):
        self.time = time
        self.tie = tie
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        """Prevent the callback from running (O(1); entry stays in heap)."""
        self.cancelled = True
        # Drop references so cancelled closures don't pin object graphs.
        self.fn = None
        self.args = ()


class ShuffledTies:
    """Tie policy that deterministically permutes same-time event order.

    The heap breaks timestamp ties by a *tie key*; the default (FIFO)
    policy uses the scheduling sequence number itself.  This policy maps
    each sequence number through a keyed hash, so events that share a
    timestamp execute in a pseudo-random — but fully reproducible —
    order decided by ``salt``.  Events at distinct times are unaffected.

    This is the probe of ``repro.analysis.races``: a simulation whose
    observable behaviour changes under any salt has a *tie-ordering
    race* — an outcome silently decided by the heap's tie-break.
    """

    __slots__ = ("salt",)

    def __init__(self, salt=0):
        self.salt = salt

    def key(self, seq):
        digest = hashlib.blake2b(f"{self.salt}/{seq}".encode(),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big")


def _tie_key_fn(tie_policy):
    """Resolve the ``Simulator(tie_policy=...)`` knob to a key fn or None."""
    if tie_policy is None:
        return None
    key = getattr(tie_policy, "key", None)
    if callable(key):
        return key
    raise SimulationError(
        f"tie_policy must be None or an object with a key(seq) method "
        f"(e.g. ShuffledTies); got {tie_policy!r}")


class Simulator:
    """Deterministic discrete-event simulator with a microsecond clock.

    Determinism: events at equal times run in scheduling order, and all
    randomness flows through named, seeded streams from :meth:`rng`, so a
    (seed, workload) pair always replays identically.

    That contract is *checked*, not just promised: ``paranoid=True``
    attaches a :class:`~repro.sim.sanitizer.ReplaySanitizer` that hashes
    the executed event trace, counts per-stream RNG draws, and asserts
    clock monotonicity (raising
    :class:`~repro.errors.DeterminismError` on violation).  The static
    side of the contract is enforced by ``python -m repro.analysis lint``.

    ``tie_policy`` controls how timestamp ties are broken: ``None`` (the
    default) runs same-time events in scheduling order; a
    :class:`ShuffledTies` instance permutes them deterministically — the
    probe used by ``python -m repro.analysis races`` to prove results do
    not hinge on the tie-break.
    """

    def __init__(self, seed=0, paranoid=False, recorder=None,
                 tie_policy=None):
        self.now = 0.0
        self.seed = seed
        self._heap = []
        self._seq = 0
        self._tie_key = _tie_key_fn(tie_policy)
        self._rngs = {}
        self._crashes = []
        if not paranoid:
            paranoid = default_paranoid()  # ambient --paranoid default
        self.sanitizer = ReplaySanitizer() if paranoid else None
        #: The observability spine: every layer emits typed, sim-time-
        #: stamped events here.  With no recorder installed the bus costs
        #: one flag check per emit site (NullRecorder default); pass
        #: ``recorder=TraceRecorder()`` (or install an ambient one via
        #: ``repro.obs.tracing``) to capture the full event stream.
        self.bus = TraceBus(self, recorder=recorder)
        # Per-run request numbering: req_id is identity-only (never used
        # for scheduling) but it rides trace events, so same-seed runs
        # must restart it to produce byte-identical traces.  Imported
        # lazily — devices sit above sim in the layering.
        from repro.devices.request import reset_req_ids
        reset_req_ids()

    # -- scheduling ---------------------------------------------------------
    def schedule(self, delay, fn, *args):
        """Run ``fn(*args)`` after ``delay`` microseconds."""
        now = self.now
        time = now + delay
        if time < now:
            raise SchedulingInPastError(
                f"schedule at {time} < now {now}")
        seq = self._seq
        self._seq = seq + 1
        tie_key = self._tie_key
        tie = seq if tie_key is None else tie_key(seq)
        handle = Handle(time, tie, seq, fn, args)
        heapq.heappush(self._heap, (time, tie, seq, handle))
        return handle

    def schedule_at(self, time, fn, *args):
        """Run ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SchedulingInPastError(
                f"schedule at {time} < now {self.now}")
        seq = self._seq
        self._seq = seq + 1
        tie_key = self._tie_key
        tie = seq if tie_key is None else tie_key(seq)
        handle = Handle(time, tie, seq, fn, args)
        heapq.heappush(self._heap, (time, tie, seq, handle))
        return handle

    # -- event factories ------------------------------------------------------
    def event(self):
        """A fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """An event that succeeds after ``delay`` microseconds.

        The returned event knows its own timer handle, so detaching the
        last waiter (``Process.interrupt``) cancels the heap entry
        instead of leaving a dead timer to fire into the void.
        """
        ev = Timeout(self)
        ev._handle = self.schedule(delay, ev._fire, value)
        return ev

    def process(self, generator):
        """Run a generator coroutine as a :class:`Process`."""
        return Process(self, generator)

    def all_of(self, events):
        return AllOf(self, events)

    def any_of(self, events):
        return AnyOf(self, events)

    # -- randomness -----------------------------------------------------------
    def rng(self, name):
        """A named, deterministic ``random.Random`` stream.

        Separate subsystems draw from separate streams so that adding draws
        in one place never perturbs another (important when comparing
        strategies under identical noise).
        """
        stream = self._rngs.get(name)
        if stream is None:
            seed_material = f"{self.seed}/{name}"
            if self.sanitizer is not None:
                stream = CountingRandom(seed_material)
            else:
                stream = random.Random(seed_material)
            self._rngs[name] = stream
        return stream

    def rng_draws(self):
        """Per-stream draw counts, sorted by stream name (paranoid only)."""
        if self.sanitizer is None:
            raise SimulationError("rng_draws() requires Simulator(paranoid=True)")
        return {name: self._rngs[name].draws for name in sorted(self._rngs)}

    def trace_hash(self):
        """Hash of the executed event trace so far (paranoid only)."""
        if self.sanitizer is None:
            raise SimulationError("trace_hash() requires Simulator(paranoid=True)")
        return self.sanitizer.hexdigest()

    # -- execution -----------------------------------------------------------
    def run(self, until=None):
        """Run until the heap drains or the clock passes ``until`` (µs)."""
        # A fresh pending event nobody triggers: stop only on the clock.
        self._loop(Event(self), math.inf if until is None else until)
        if until is not None and self.now < until:
            self.now = until

    def run_until(self, event, limit=None):
        """Run until ``event`` triggers (or the heap drains / clock passes
        ``limit``); returns whether the event triggered."""
        self._loop(event, math.inf if limit is None else limit)
        return event._done

    def _loop(self, event, limit):
        """Execute heap events in order until the heap drains, ``event``
        triggers, or the next live event lies past ``limit`` (an event at
        exactly ``limit`` still runs)."""
        heap = self._heap
        pop = heapq.heappop
        sanitizer = self.sanitizer
        while heap and not event._done:
            time, _tie, seq, handle = heap[0]
            # Purge cancelled entries first so the limit check sees the
            # next event that would actually run.
            if handle.cancelled:
                pop(heap)
                continue
            if time > limit:
                break
            pop(heap)
            self.now = time
            if sanitizer is not None:
                sanitizer.observe(time, seq, handle.fn)
            handle.fn(*handle.args)
            if self._crashes:
                self._raise_crashes()

    # -- crash plumbing ---------------------------------------------------------
    def _report_crash(self, event, exc):
        self._crashes.append((event, exc))

    def defuse(self, event):
        """Mark a failed event as handled (drop it from crash reporting).

        O(1) on the overwhelmingly common single-crash case (a process
        defusing the one event it just observed fail); the rebuild only
        happens when several crashes are pending at once.
        """
        crashes = self._crashes
        if not crashes:
            return
        if len(crashes) == 1:
            if crashes[0][0] is event:
                crashes.clear()
            return
        self._crashes = [(ev, e) for ev, e in crashes if ev is not event]

    def _raise_crashes(self):
        if self._crashes:
            _, exc = self._crashes[0]
            self._crashes.clear()
            raise ProcessCrashed(
                f"unhandled failure in simulation process: {exc!r}") from exc

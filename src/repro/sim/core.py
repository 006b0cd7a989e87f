"""The simulator: event heap, clock, and deterministic RNG streams.

Hot-loop layout: a heap entry is a mutable ``[time, tie, seq, fn, args]``
list, and :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`
return that entry as the caller's handle.  Every heap comparison is a
C-level list compare that stops at ``seq``, which is unique, so it never
reaches the payload.  :meth:`Simulator.cancel` marks an entry dead by
clearing its callback; the run loop drops dead entries as it pops them,
and once dead entries are more than half the heap, a cancel rebuilds the
heap from its live ones.  :meth:`Simulator.run` and
:meth:`Simulator.run_until` are thin wrappers over one loop, ``_loop``,
with the heap, ``heappop`` and the sanitizer hoisted into locals; the
paranoid sanitizer is its only per-event observer.  None of this is part
of the determinism contract, which is behavioural:
``tests/test_kernel_equivalence.py`` pins bus digests and per-stream RNG
draw counts, not callback names or event counts.
"""

import hashlib
import heapq
import math
import random

from repro.errors import ProcessCrashed, SchedulingInPastError, SimulationError
from repro.obs.bus import TraceBus, default_paranoid
from repro.sim.events import AllOf, AnyOf, Event
from repro.sim.process import Process
from repro.sim.sanitizer import CountingRandom, ReplaySanitizer


#: Dead entries a heap may hold before a cancel considers rebuilding it,
#: so a small heap is not rebuilt every few cancels.
_COMPACT_FLOOR = 64


class ShuffledTies:
    """Tie policy that deterministically permutes same-time event order.

    The heap breaks timestamp ties by a *tie key*; the default (FIFO)
    policy uses the scheduling sequence number itself.  This policy maps
    each sequence number through a keyed hash, so events that share a
    timestamp execute in a pseudo-random — but fully reproducible —
    order decided by ``salt``.  Events at distinct times are unaffected.

    This is the probe of ``python -m repro.analysis check``: a
    simulation whose observable behaviour changes under any salt has a
    *tie-ordering race* — an outcome silently decided by the heap's
    tie-break.
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
    probe used by ``python -m repro.analysis check`` to prove results do
    not hinge on the tie-break.
    """

    def __init__(self, seed=0, paranoid=False, recorder=None,
                 tie_policy=None):
        self.now = 0.0
        self.seed = seed
        self._heap = []
        self._dead = 0   # cancelled entries still in the heap
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
        """Run ``fn(*args)`` after ``delay`` microseconds.

        Returns the heap entry, the handle :meth:`cancel` takes.
        """
        now = self.now
        time = now + delay
        if time < now:
            raise SchedulingInPastError(
                f"schedule at {time} < now {now}")
        seq = self._seq
        self._seq = seq + 1
        tie_key = self._tie_key
        entry = [time, seq if tie_key is None else tie_key(seq), seq, fn,
                 args]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_at(self, time, fn, *args):
        """Run ``fn(*args)`` at absolute simulation time ``time``; returns
        the heap entry like :meth:`schedule`."""
        if time < self.now:
            raise SchedulingInPastError(
                f"schedule at {time} < now {self.now}")
        seq = self._seq
        self._seq = seq + 1
        tie_key = self._tie_key
        entry = [time, seq if tie_key is None else tie_key(seq), seq, fn,
                 args]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry):
        """Make a scheduled callback a no-op.

        Cancelling an entry twice, or one that already ran, does nothing.
        The entry stays in the heap, dead, until the run loop pops it or
        the heap is rebuilt from its live entries, which a cancel does
        once dead ones are more than half of it and above the floor.
        """
        if entry[3] is None:
            return
        # Drop references so cancelled closures don't pin object graphs.
        entry[3] = None
        entry[4] = ()
        dead = self._dead + 1
        heap = self._heap
        if dead > _COMPACT_FLOOR and 2 * dead > len(heap):
            # In place: a running _loop holds this list.  (time, tie, seq)
            # orders entries totally, so the rebuilt heap pops the live
            # entries in the same order.
            heap[:] = [e for e in heap if e[3] is not None]
            heapq.heapify(heap)
            dead = 0
        self._dead = dead

    # -- event factories ------------------------------------------------------
    def event(self):
        """A fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """A plain :class:`Event` that succeeds with ``value`` after
        ``delay`` microseconds.

        Processes rarely need one: yielding the bare number takes the
        fused timer path.  Use it where an event is needed, e.g. as a
        child of :meth:`all_of` or :meth:`any_of`.
        """
        ev = Event(self)
        self.schedule(delay, ev.succeed, value)
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
            entry = pop(heap)
            time, _tie, seq, fn, args = entry
            if fn is None:
                self._dead -= 1
                continue
            if time > limit:
                heapq.heappush(heap, entry)
                break
            # Ran: a later cancel of this entry must not count it dead.
            entry[3] = None
            self.now = time
            if sanitizer is not None:
                sanitizer.observe(time, seq, fn)
            fn(*args)
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

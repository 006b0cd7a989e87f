"""Runtime replay sanitizer — the dynamic half of the determinism contract.

``Simulator(paranoid=True)`` attaches a :class:`ReplaySanitizer` that

* hashes the executed event trace — one ``(time, seq, callback qualname)``
  record per executed (non-cancelled) event — into a running blake2b
  digest, so two runs can be compared with a single string;
* keeps the full trace so :func:`repro.analysis.verify_replay` can
  pinpoint the *first* divergent event, not just report a hash mismatch;
* asserts clock monotonicity at execution time (a popped event must never
  run before the current clock — only possible if the heap was mutated
  behind the simulator's back, the hazard rule DET005 flags statically);
* counts RNG draws per named stream, so replay reports can show *which*
  subsystem drew a different number of random values.

The static half is the ``repro.analysis`` linter
(``python -m repro.analysis rules`` lists its rules).
"""

import hashlib
import random

from repro.errors import DeterminismError


def callback_qualname(fn):
    """A stable, human-readable name for a scheduled callback.

    Bound methods and plain functions carry ``__module__``/``__qualname__``;
    anything else (partials, callables) falls back to its type name, which
    is still stable across runs of the same build.
    """
    qual = getattr(fn, "__qualname__", None)
    if qual is None:
        return type(fn).__name__
    mod = getattr(fn, "__module__", None)
    return f"{mod}.{qual}" if mod else qual


class CountingRandom(random.Random):
    """A ``random.Random`` that counts how many primitive draws it served.

    All public distribution methods funnel through :meth:`random` or
    :meth:`getrandbits`, so incrementing in those two covers everything.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


class ReplaySanitizer:
    """Accumulates the executed event trace of one paranoid simulator."""

    __slots__ = ("_hash", "trace", "events", "_last_time")

    def __init__(self, record_trace=True):
        self._hash = hashlib.blake2b(digest_size=16)
        self.trace = [] if record_trace else None
        self.events = 0
        self._last_time = None

    def observe(self, time, seq, fn):
        """Record one executed event; raises on a non-monotonic clock."""
        if self._last_time is not None and time < self._last_time:
            raise DeterminismError(
                f"clock moved backwards: event (t={time}, seq={seq}) "
                f"executed after t={self._last_time} — was the event heap "
                "mutated outside sim/core.py? (see rule DET005)")
        self._last_time = time
        qual = callback_qualname(fn)
        self.events += 1
        self._hash.update(f"{time!r}|{seq}|{qual}\n".encode())
        if self.trace is not None:
            self.trace.append((time, seq, qual))

    def observe_trace(self, line):
        """Fold one TraceBus event (canonical JSON) into the replay hash.

        Only called while a recorder is active, so un-traced paranoid runs
        keep their historical hashes; traced same-seed runs must agree on
        the *combined* executed-event + emitted-event stream.
        """
        self._hash.update(b"bus|")
        self._hash.update(line.encode())
        self._hash.update(b"\n")

    def hexdigest(self):
        """Hash of the trace so far (cheap; safe to call repeatedly)."""
        return self._hash.hexdigest()

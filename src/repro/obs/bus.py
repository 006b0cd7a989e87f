"""The TraceBus: one synchronized event stream per simulator.

The bus serves two planes with one mechanism:

* **control plane** — source-scoped subscriptions (``subscribe(topic, fn,
  source=obj)``) replace the ad-hoc listener lists layers used to wire by
  hand (scheduler dispatch/complete listeners, accuracy hooks).  Emission
  is synchronous and deterministic: subscribers run in subscription order
  at the emitting call site, exactly like the lists they replace.

* **trace plane** — an optional :class:`TraceRecorder` materializes typed
  :class:`~repro.obs.events.TraceEvent` records.  The default
  :class:`NullRecorder` is a single ``active`` flag check at every emit
  site: no event object is ever constructed; the un-traced hot path's
  speed is measured end to end by the repo benchmark (``BENCHMARK.json``).

Determinism contract: recorded events carry only sim-clock timestamps and
their canonical JSON lines feed the paranoid sanitizer's hash (when
``Simulator(paranoid=True)``), so same-seed replays must produce
byte-identical traces — ``python -m repro.obs smoke`` is the CI gate.
"""

import gzip
import hashlib
import json

from repro.obs.events import TraceEvent, _plain

#: Field keys excluded from the *canonical* (tie-insensitive) trace form:
#: identity labels whose assignment rides scheduling order.  Two runs that
#: differ only in same-timestamp tie order hand out ``req`` ids in a
#: different order, and interchangeable concurrent actors (e.g. the two
#: reader processes of one noise injector) swap which ``pid`` drew which
#: offset — pure relabelings.  A *behavioural* difference still diverges
#: through event times, offsets, topics, and per-stream draw counts.
VOLATILE_FIELDS = frozenset({"req", "pid"})


def canonical_line(event, volatile=VOLATILE_FIELDS):
    """Order-insensitive canonical form of one trace event.

    Drops the timestamp (it becomes the group key) and the volatile
    identity counters, and sorts the remaining field keys — so two events
    describing the same occurrence serialize identically regardless of
    the same-timestamp order they were emitted in.  This is the bus-side
    half of the tie-order race detector (``repro.analysis.races``).
    """
    fields = {k: v for k, v in event.fields.items() if k not in volatile}
    return event.topic + "|" + json.dumps(
        fields, sort_keys=True, separators=(",", ":"), default=_plain)

# -- session defaults (what `--trace` / `--paranoid` install) ----------------
# Host-session configuration, not simulated state: the harness installs
# it at setup, before any simulator exists.
_defaults = {"recorder": None, "paranoid": False}


def install_tracing(recorder=None, paranoid=False):
    """Install session defaults picked up by every new ``Simulator``.

    Used by the experiment CLI's ``--trace``/``--paranoid`` flags: the
    experiments build their simulators internally, so the recorder must be
    ambient.  Always pair with :func:`reset_tracing`.
    """
    _defaults["recorder"] = recorder
    _defaults["paranoid"] = paranoid
    return recorder


def reset_tracing():
    _defaults["recorder"] = None
    _defaults["paranoid"] = False


def default_recorder():
    return _defaults["recorder"]


def default_paranoid():
    return _defaults["paranoid"]


class tracing:
    """Context manager: ``with tracing(TraceRecorder()) as rec: ...``."""

    def __init__(self, recorder, paranoid=False):
        self.recorder = recorder
        self.paranoid = paranoid

    def __enter__(self):
        install_tracing(self.recorder, paranoid=self.paranoid)
        return self.recorder

    def __exit__(self, *exc):
        reset_tracing()
        return False


class NullRecorder:
    """The zero-overhead default: emit sites check ``active`` and move on."""

    __slots__ = ()
    active = False

    def record(self, event):  # pragma: no cover - never called when inactive
        pass


class TraceRecorder:
    """Accumulates typed events, their canonical JSONL, and a trace hash.

    ``keep_events`` can be disabled for very long runs where only the
    digest (determinism checking) matters.  ``validate=True`` is the
    paranoid debug mode: every recorded event is checked against its
    topic's declared schema (:mod:`repro.obs.schema`) and the first
    mismatch raises :class:`~repro.obs.schema.SchemaViolation` — the
    dynamic twin of the static event-flow lint pass (DET011-DET013).
    """

    active = True

    def __init__(self, keep_events=True, validate=False):
        self.events = [] if keep_events else None
        self.count = 0
        self.validate = validate
        self._hash = hashlib.blake2b(digest_size=16)

    def record(self, event):
        if self.validate:
            # Imported lazily: the non-validating hot path never pays it.
            from repro.obs.schema import validate_event
            validate_event(event)
        self.count += 1
        self._hash.update(event.to_json().encode())
        self._hash.update(b"\n")
        if self.events is not None:
            self.events.append(event)

    def trace_digest(self):
        """Hash of every recorded event so far (sim-clock only, so two
        same-seed runs must agree)."""
        return self._hash.hexdigest()

    def canonical_digest(self, volatile=VOLATILE_FIELDS):
        """Tie-insensitive digest: events grouped by timestamp, sorted
        within each group, volatile identity counters dropped.

        Two same-seed runs that differ *only* in how same-timestamp ties
        were broken produce the same canonical digest; a mismatch means
        the tie-break changed observable behaviour (a tie-order race —
        see ``python -m repro.analysis races``).
        """
        if self.events is None:
            raise RuntimeError("recorder was built with keep_events=False")
        digest = hashlib.blake2b(digest_size=16)
        group, group_time = [], None
        for ev in self.events + [None]:
            # Exact float equality is the grouping criterion by
            # construction: ties share the heap's timestamp bit-for-bit.
            if ev is not None and \
                    (group_time is None
                     or ev.time == group_time):  # repro: allow[DET004]
                group.append(canonical_line(ev, volatile))
                group_time = ev.time
                continue
            if group:
                digest.update(f"t={group_time!r}\n".encode())
                for line in sorted(group):
                    digest.update(line.encode())
                    digest.update(b"\n")
            if ev is not None:
                group, group_time = [canonical_line(ev, volatile)], ev.time
        return digest.hexdigest()

    # -- consumption ------------------------------------------------------
    def by_topic(self, topic):
        if self.events is None:
            raise RuntimeError("recorder was built with keep_events=False")
        return [ev for ev in self.events if ev.topic == topic]

    def topic_counts(self):
        counts = {}
        for ev in self.events or ():
            counts[ev.topic] = counts.get(ev.topic, 0) + 1
        return counts

    def write_jsonl(self, path):
        """Export the trace as one canonical JSON object per line.

        A ``.gz`` path writes gzip-compressed JSONL (chaos/slosweep
        traces compress ~20x); ``read_jsonl``/``iter_jsonl`` reopen it
        transparently.  The archive embeds no wall-clock (``mtime=0``),
        so two same-seed exports stay byte-identical.
        """
        if self.events is None:
            raise RuntimeError("recorder was built with keep_events=False")
        with open_trace(path, "w") as fh:
            for ev in self.events:
                fh.write(ev.to_json())
                fh.write("\n")
        return len(self.events)


class TraceFormatError(Exception):
    """A JSONL trace file whose lines cannot be parsed back into events
    (truncated export, wrong file, hand-edited line)."""


def open_trace(path, mode="r"):
    """Open a trace path for text IO, transparently gzipped for ``.gz``.

    Writes pin the gzip header's mtime to 0 and omit the embedded
    filename, so the archive bytes are a pure function of the trace
    content — the byte-identity determinism gates (``cmp`` on two
    same-seed exports) hold for ``.gz`` too, whatever the path.
    """
    if str(path).endswith(".gz"):
        if "r" in mode:
            return gzip.open(path, "rt")
        import io
        raw = open(path, mode + "b")
        binary = gzip.GzipFile(filename="", mode=mode + "b", mtime=0,
                               fileobj=raw)
        # GzipFile only closes files it opened itself; hand it ours so
        # close() flushes the buffered writer too.
        binary.myfileobj = raw
        return io.TextIOWrapper(binary, encoding="utf-8")
    return open(path, mode)


def iter_jsonl(path):
    """Stream a JSONL trace as :class:`TraceEvent` objects, one per line.

    The generator twin of :func:`read_jsonl` for megasweep-scale traces:
    nothing is held beyond the current line.  Same error contract —
    :class:`TraceFormatError` names ``path:lineno`` on malformed content,
    ``OSError`` propagates when the file cannot be opened, and blank
    lines are skipped.  ``.gz`` paths are decompressed transparently.
    """
    with open_trace(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield TraceEvent.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise TraceFormatError(
                    f"{path}:{lineno}: not a trace event line "
                    f"({exc})") from exc


def read_jsonl(path):
    """Load a whole JSONL trace into a list (see :func:`iter_jsonl`)."""
    return list(iter_jsonl(path))


class TraceBus:
    """Per-simulator event bus: control subscriptions + trace recording."""

    __slots__ = ("sim", "_subs", "recorder")

    def __init__(self, sim, recorder=None):
        self.sim = sim
        self._subs = {}
        if recorder is None:
            recorder = default_recorder() or _NULL
        self.recorder = recorder

    @property
    def recording(self):
        return self.recorder.active

    # -- control plane ----------------------------------------------------
    def subscribe(self, topic, fn, source=None):
        """Run ``fn(*args)`` on every ``emit(topic, source, *args)``.

        Subscriptions are source-scoped: a consumer observing one
        scheduler never pays for (or hears) another scheduler's events.
        """
        self._subs.setdefault(topic, {}).setdefault(source, []).append(fn)
        return fn

    def unsubscribe(self, topic, fn, source=None):
        subs = self._subs.get(topic, {}).get(source)
        if subs and fn in subs:
            subs.remove(fn)

    def channel(self, topic, source=None):
        """The live subscriber list for ``(topic, source)``.

        Emit-site hoisting: the returned list is the very object
        ``subscribe``/``unsubscribe`` mutate in place, so a hot emitter
        may fetch it once and iterate it directly — skipping the two
        per-emission dict lookups — while still seeing consumers that
        come and go later.
        """
        return self._subs.setdefault(topic, {}).setdefault(source, [])

    def emit(self, topic, source, *args):
        """Synchronously deliver to the (topic, source) subscribers.

        The subscription table is nested (topic -> source -> [fns]) rather
        than keyed by ``(topic, source)`` tuples: emit sits on the per-IO
        hot path, and two small-dict lookups beat allocating and hashing a
        fresh tuple per emission — unsubscribed topics bail on the first.
        """
        by_source = self._subs.get(topic)
        if by_source is None:
            return
        subs = by_source.get(source)
        if subs:
            for fn in subs:
                fn(*args)

    # -- trace plane -------------------------------------------------------
    def record(self, topic, fields):
        """Materialize one typed event (call only when ``recording``)."""
        event = TraceEvent(self.sim.now, topic, fields)
        self.recorder.record(event)
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.observe_trace(event.to_json())


_NULL = NullRecorder()

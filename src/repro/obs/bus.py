"""The TraceBus: one synchronized trace stream per simulator.

The bus has one job, recording the trace.  Layers call
``bus.record(topic, fields)`` at each edge they want on the trace, behind
a ``bus.recorder.active`` check: the default :class:`NullRecorder` makes
that check the whole cost of an untraced run, and no event object is ever
constructed (the hot path's speed is measured end to end by the repo
benchmark, ``BENCHMARK.json``).  An installed :class:`TraceRecorder`
materializes typed :class:`~repro.obs.events.TraceEvent` records.

Nothing steers through the bus.  Counters are plain attributes on the
layer that owns the event, and the MittOS predictors hook the IO
scheduler through its own ``add_*_listener`` methods.

Determinism contract: recorded events carry only sim-clock timestamps and
their canonical JSON lines feed the paranoid sanitizer's hash (when
``Simulator(paranoid=True)``), so same-seed replays must produce
byte-identical traces — ``python -m repro.analysis check`` is the gate.
"""

import gzip
import hashlib
import json
from collections import Counter

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
    half of the tie-order race detector (``repro.analysis.check``).
    """
    fields = {k: v for k, v in event.fields.items() if k not in volatile}
    return event.topic + "|" + json.dumps(
        fields, sort_keys=True, separators=(",", ":"), default=_plain)


def canonical_timeline(records):
    """Group ``(time, line)`` records into a canonical timeline:
    ``((time, tuple(sorted(lines))), ...)`` in time order.

    The kernel goldens and ``python -m repro.obs diff`` pass each bus
    event's :func:`canonical_line`; ``python -m repro.analysis check``
    adds the executed callbacks.  Sorting within a group makes a reorder
    of same-timestamp records compare equal.
    """
    groups = {}
    for time, line in records:
        groups.setdefault(time, []).append(line)
    return tuple((time, tuple(sorted(groups[time])))
                 for time in sorted(groups))


def timeline_digest(timeline):
    """Hash of a :func:`canonical_timeline` (the goldens' canonical
    digest and ``analysis check``'s tie-order digest)."""
    digest = hashlib.blake2b(digest_size=16)
    for time, lines in timeline:
        digest.update(f"t={time!r}\n".encode())
        for line in lines:
            digest.update(line.encode())
            digest.update(b"\n")
    return digest.hexdigest()


def first_group_mismatch(timeline_a, timeline_b):
    """(time, only_in_a, only_in_b) of the first divergent timestamp group
    between two canonical timelines, or ``None`` when they are identical."""
    for (time_a, lines_a), (time_b, lines_b) in zip(timeline_a, timeline_b):
        if time_a != time_b:
            earlier_is_a = time_a < time_b
            return (min(time_a, time_b),
                    lines_a if earlier_is_a else (),
                    () if earlier_is_a else lines_b)
        if lines_a != lines_b:
            only_a = Counter(lines_a) - Counter(lines_b)
            only_b = Counter(lines_b) - Counter(lines_a)
            return (time_a, tuple(sorted(only_a.elements())),
                    tuple(sorted(only_b.elements())))
    if len(timeline_a) != len(timeline_b):
        longer = timeline_a if len(timeline_a) > len(timeline_b) \
            else timeline_b
        time, lines = longer[min(len(timeline_a), len(timeline_b))]
        if longer is timeline_a:
            return time, lines, ()
        return time, (), lines
    return None


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

    ``validate=True`` is the paranoid debug mode: every recorded event is
    checked against its topic's declared schema (:mod:`repro.obs.schema`)
    and the first mismatch raises
    :class:`~repro.obs.schema.SchemaViolation` — the dynamic twin of the
    static event-flow lint pass (DET011-DET013).
    """

    active = True

    def __init__(self, validate=False):
        self.events = []
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
        self.events.append(event)

    def trace_digest(self):
        """Hash of every recorded event so far (sim-clock only, so two
        same-seed runs must agree)."""
        return self._hash.hexdigest()

    # -- consumption ------------------------------------------------------
    def by_topic(self, topic):
        return [ev for ev in self.events if ev.topic == topic]

    def topic_counts(self):
        counts = {}
        for ev in self.events:
            counts[ev.topic] = counts.get(ev.topic, 0) + 1
        return counts

    def write_jsonl(self, path):
        """Export the trace as one canonical JSON object per line.

        A ``.gz`` path writes gzip-compressed JSONL (chaos/slosweep
        traces compress ~20x); ``read_jsonl``/``iter_jsonl`` reopen it
        transparently.  The archive embeds no wall-clock (``mtime=0``),
        so two same-seed exports stay byte-identical.
        """
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
    """Per-simulator trace sink: records events when a recorder is active."""

    __slots__ = ("sim", "recorder")

    def __init__(self, sim, recorder=None):
        self.sim = sim
        if recorder is None:
            recorder = default_recorder() or _NULL
        self.recorder = recorder

    @property
    def recording(self):
        return self.recorder.active

    def record(self, topic, fields):
        """Materialize one typed event (call only when ``recording``)."""
        event = TraceEvent(self.sim.now, topic, fields)
        self.recorder.record(event)
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.observe_trace(event.to_json())


_NULL = NullRecorder()

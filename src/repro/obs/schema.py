"""Typed event-schema registry: the single source of truth for topics.

Every topic on the :class:`~repro.obs.bus.TraceBus` is declared here as a
:class:`TopicSchema`: its name, its required and optional payload fields,
and a coarse type per field.  ``repro.obs.events`` re-exports the topic
constants from this module, so emitters and consumers that import
``IO_SUBMIT`` et al. are — transitively — referencing this registry.

Two enforcement surfaces consume the declarations:

* **static** — the whole-program event-flow pass
  (``repro.analysis.eventflow``, rules ``DET011``-``DET013``) checks
  every ``record``/``emit`` call site and every consumer payload-key
  access against these schemas at lint time;
* **dynamic** — ``TraceRecorder(validate=True)`` calls
  :func:`validate_event` on every recorded event and raises
  :class:`SchemaViolation` on the first mismatch, so the static pass and
  the paranoid runtime sanitizer cross-check each other.

The registry is declarative only: the default (non-validating) record
path never touches it, so trace digests and replay hashes are
byte-identical to a build without it.

Coarse field types
------------------

==========  ==============================================================
``int``     a Python int (bools excluded)
``number``  int or float (µs latencies, offsets, scale factors)
``str``     a string
``bool``    a bool
``key``     an identity label: str or int (file ids, node ids)
``mapping`` a dict (e.g. a span ``stages`` partition)
``any``     anything JSON-serializable
==========  ==============================================================

A trailing ``?`` marks the field nullable: ``number?`` admits ``None``
(e.g. ``deadline`` on a deadline-less read).  Optional fields may be
absent entirely; required fields must always be present.
"""

from dataclasses import dataclass

# -- topic name constants (events.py re-exports these) -----------------------
IO_SUBMIT = "io.submit"
IO_DISPATCH = "io.dispatch"
IO_SERVICE_START = "io.service_start"
IO_COMPLETE = "io.complete"
IO_CANCEL = "io.cancel"

OS_READ = "os.read"
OS_WRITE = "os.write"
OS_EBUSY = "os.ebusy"

VERDICT = "predictor.verdict"
LATE_REJECT = "predictor.late_reject"

CACHE_HIT = "cache.hit"
CACHE_MISS = "cache.miss"
CACHE_SWAPIN = "cache.swapin"

RPC_SEND = "rpc.send"
RPC_RECV = "rpc.recv"
RPC_DROP = "rpc.drop"

FAULT = "fault.transition"
DECISION = "strategy.decision"

SLO_WINDOW = "slo.window"
SLO_TRANSITION = "slo.transition"
SLO_SHED = "slo.shed"

SPAN_REQUEST = "span.request"
SPAN_OP = "span.op"


@dataclass(frozen=True)
class TopicSchema:
    """Declared payload contract of one trace topic."""

    topic: str
    doc: str
    #: field name -> coarse type ("int", "number", "str", "bool", "key",
    #: "mapping", "any"; trailing "?" admits None).
    required: dict
    #: fields an emitter *may* add (same type grammar).
    optional: dict

    def keys(self):
        """Every declared payload key (required + optional)."""
        return frozenset(self.required) | frozenset(self.optional)


#: The identity fields every block-layer event carries
#: (:func:`repro.obs.events.request_fields`).
REQUEST_IDENTITY = {
    "req": "int", "op": "str", "offset": "number", "size": "number",
    "pid": "int",
}


def _schema(topic, doc, required, optional=None):
    return TopicSchema(topic, doc, dict(required), dict(optional or {}))


#: topic name -> :class:`TopicSchema`, in canonical (display) order.
SCHEMAS = {s.topic: s for s in (
    _schema(IO_SUBMIT,
            "request entered the IO scheduler queues",
            {**REQUEST_IDENTITY, "dev": "str"}),
    _schema(IO_DISPATCH,
            "scheduler dispatched the request into the device",
            {**REQUEST_IDENTITY, "dev": "str"}),
    _schema(IO_SERVICE_START,
            "device began servicing the request (post NCQ queue)",
            {**REQUEST_IDENTITY, "device": "str"}),
    _schema(IO_COMPLETE,
            "device completed the request",
            {**REQUEST_IDENTITY, "dev": "str", "latency": "number"}),
    _schema(IO_CANCEL,
            "scheduler revoked a still-queued request",
            {**REQUEST_IDENTITY, "dev": "str"}),
    _schema(OS_READ,
            "syscall entry of read(..., deadline)",
            {"file": "key", "offset": "number", "size": "number",
             "pid": "int", "deadline": "number?"}),
    _schema(OS_WRITE,
            "syscall entry of the buffered write path",
            {"file": "key", "offset": "number", "size": "number",
             "pid": "int"}),
    _schema(OS_EBUSY,
            "the OS returned EBUSY (fast reject, late cancellation, or "
            "an addrcheck probe)",
            {"probe": "bool", "predicted_wait": "number?"}),
    _schema(VERDICT,
            "a MittOS admission decision (accept or EBUSY) with "
            "predicted wait/service; probes are tagged",
            {**REQUEST_IDENTITY, "predictor": "str", "accept": "bool",
             "probe": "bool", "shadow": "bool", "deadline": "number?",
             "predicted_wait": "number?", "predicted_service": "number?"},
            optional={"device": "str", "dev_kind": "str", "sched": "str"}),
    _schema(LATE_REJECT,
            "shadow-mode MittCFQ bump-back: a queued request's recorded "
            "decision became EBUSY after admission (the IO still runs)",
            {**REQUEST_IDENTITY, "predictor": "str"}),
    _schema(CACHE_HIT,
            "page-cache residency: full hit",
            {"file": "key", "offset": "number", "size": "number"}),
    _schema(CACHE_MISS,
            "page-cache residency: miss",
            {"file": "key", "offset": "number", "size": "number"}),
    _schema(CACHE_SWAPIN,
            "background swap-in after EBUSY (§4.4 fairness)",
            {"file": "key", "offset": "number", "size": "number"}),
    _schema(RPC_SEND,
            "one network-hop message sent",
            {"src": "key", "dst": "key", "latency": "number"}),
    _schema(RPC_RECV,
            "one network-hop message delivered",
            {"src": "key", "dst": "key", "latency": "number"}),
    _schema(RPC_DROP,
            "one network-hop message lost (loss rate or partition)",
            {"src": "key", "dst": "key"}),
    _schema(FAULT,
            "fault-plane state change (crash, restart, storm, ...)",
            {"kind": "str"},
            optional={"node": "key", "epoch": "int", "cpu_factor": "number",
                      "device_factor": "number", "device": "str",
                      "factor": "number"}),
    _schema(DECISION,
            "client-strategy control decision (failover, retry, ...)",
            {"strategy": "str", "kind": "str"},
            optional={"node": "key", "key": "any", "best": "int",
                      "round_no": "int", "delay_us": "number",
                      "limit_us": "number", "timeout_us": "number",
                      "predicted_wait": "number?"}),
    _schema(SLO_WINDOW,
            "one SLO-controller observation window closed: windowed tail "
            "latency, EBUSY rate, error-budget burn, backpressure state",
            {"controller": "str", "window": "int", "n": "int",
             "p95": "number?", "ebusy_rate": "number", "burn": "number",
             "shed": "int", "qdepth": "int", "level": "int",
             "deadline": "number", "mode": "str"}),
    _schema(SLO_TRANSITION,
            "the SLO controller changed its effective deadline or "
            "degradation level (one adaptive move per window)",
            {"controller": "str", "kind": "str", "deadline": "number",
             "level": "int", "mode": "str", "window": "int"}),
    _schema(SLO_SHED,
            "a per-node admission guard shed one read at syscall entry "
            "(lowest tier first; graceful-degradation backpressure)",
            {"node": "key", "pid": "int", "tier": "int", "level": "int",
             "queued": "int"}),
    _schema(SPAN_REQUEST,
            "per-request latency breakdown at completion",
            {"outcome": "str", "total": "number", "stages": "mapping"},
            optional={**REQUEST_IDENTITY, "file": "key"}),
    _schema(SPAN_OP,
            "per-client-op latency breakdown at completion",
            {"strategy": "str", "key": "any", "outcome": "str",
             "attempts": "int", "timeouts": "int", "total": "number",
             "stages": "mapping"}),
)}


def declared_keys(topic):
    """Declared payload keys of ``topic``, or None for an unknown topic."""
    schema = SCHEMAS.get(topic)
    return schema.keys() if schema is not None else None


def _field_cell(fields):
    """``name:type`` list of one required/optional dict, declaration order."""
    return ", ".join(f"`{name}:{type_name}`"
                     for name, type_name in fields.items()) or "—"


def render_markdown():
    """The auto-generated topic/payload reference table (GitHub markdown).

    Rendered by ``python -m repro.obs schema --markdown`` and checked
    into DESIGN.md §8; tier-1's ``test_design_md_schema_table_is_current``
    fails when the checked-in table drifts from this registry.
    """
    lines = [
        "| topic | required | optional | doc |",
        "|---|---|---|---|",
    ]
    for schema in SCHEMAS.values():
        lines.append(f"| `{schema.topic}` | {_field_cell(schema.required)} "
                     f"| {_field_cell(schema.optional)} | {schema.doc} |")
    return "\n".join(lines)


# -- dynamic validation ------------------------------------------------------

class SchemaViolation(Exception):
    """A recorded event whose payload breaks its topic's declared schema
    (raised only under ``TraceRecorder(validate=True)``)."""


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _type_ok(value, type_name):
    if type_name.endswith("?"):
        if value is None:
            return True
        type_name = type_name[:-1]
    if type_name == "int":
        return _is_int(value)
    if type_name == "number":
        return _is_int(value) or isinstance(value, float)
    if type_name == "str":
        return isinstance(value, str)
    if type_name == "bool":
        return isinstance(value, bool)
    if type_name == "key":
        return isinstance(value, str) or _is_int(value)
    if type_name == "mapping":
        return isinstance(value, dict)
    return True  # "any"


def validate_fields(topic, fields):
    """Problems (list of strings) with one payload; empty when clean."""
    schema = SCHEMAS.get(topic)
    if schema is None:
        return [f"unknown topic '{topic}'"]
    problems = []
    for name, type_name in schema.required.items():
        if name not in fields:
            problems.append(f"missing required field '{name}'")
        elif not _type_ok(fields[name], type_name):
            problems.append(
                f"field '{name}' expects {type_name}, "
                f"got {type(fields[name]).__name__} "
                f"({fields[name]!r})")
    for name, type_name in schema.optional.items():
        if name in fields and not _type_ok(fields[name], type_name):
            problems.append(
                f"field '{name}' expects {type_name}, "
                f"got {type(fields[name]).__name__} "
                f"({fields[name]!r})")
    declared = schema.keys()
    for name in fields:
        if name not in declared:
            problems.append(f"undeclared field '{name}'")
    return problems


def validate_event(event):
    """Validate one :class:`~repro.obs.events.TraceEvent`; raises
    :class:`SchemaViolation` naming every problem."""
    problems = validate_fields(event.topic, event.fields)
    if problems:
        raise SchemaViolation(
            f"t={event.time} {event.topic}: " + "; ".join(problems))

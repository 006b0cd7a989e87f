"""Event taxonomy of the traced IO-path spine.

Every layer of the stack emits into one :class:`~repro.obs.bus.TraceBus`
per simulator.  Topics are plain strings, grouped by layer:

==========================  ===================================================
``io.submit``               request entered the IO scheduler queues
``io.dispatch``             scheduler dispatched the request into the device
``io.service_start``        device began servicing the request (post NCQ queue)
``io.complete``             device completed the request
``io.cancel``               scheduler revoked a still-queued request
``os.read``                 syscall entry of ``read(..., deadline)``
``os.write``                syscall entry of the buffered write path
``os.ebusy``                the OS returned EBUSY (fast reject, late
                            cancellation, or an ``addrcheck`` probe)
``predictor.verdict``       a MittOS admission decision (accept or EBUSY),
                            with predicted wait/service; probes are tagged
``predictor.late_reject``   shadow-mode MittCFQ bump-back: the recorded
                            decision became EBUSY after admission
``cache.hit/miss``          page-cache residency outcome of one read
``cache.swapin``            background swap-in after EBUSY (§4.4 fairness)
``rpc.send/recv/drop``      one network-hop message life cycle
``fault.transition``        fault-plane state change (crash, restart, storm…)
``strategy.decision``       client-strategy control decision (failover, retry)
``slo.window``              SLO-controller observation window closed (p95,
                            EBUSY rate, error-budget burn, queue depth)
``slo.transition``          SLO controller changed deadline/degradation level
``slo.shed``                per-node admission guard shed one read (tiered
                            backpressure)
``span.request``            per-request latency breakdown at completion
``span.op``                 per-client-op latency breakdown at completion
==========================  ===================================================

The two ``span.*`` topics carry the latency-attribution payload: a
``stages`` mapping whose values sum to the end-to-end latency of the
request/op (the span invariant; see DESIGN.md "Observability plane").

Events are sim-time-stamped only — no wall-clock ever enters the stream —
so a (seed, workload) pair always produces a byte-identical trace.

Each topic's payload contract (required/optional fields + coarse types)
is declared in :mod:`repro.obs.schema` — the single source of truth the
constants below re-export from.  The event-flow lint pass (DET011-DET013)
and ``TraceRecorder(validate=True)`` both enforce those declarations.
"""

import json

# -- topics (declared in repro.obs.schema; re-exported here) -----------------
from repro.obs.schema import (CACHE_HIT, CACHE_MISS, CACHE_SWAPIN, DECISION,
                              FAULT, IO_CANCEL, IO_COMPLETE, IO_DISPATCH,
                              IO_SERVICE_START, IO_SUBMIT, LATE_REJECT,
                              OS_EBUSY, OS_READ, OS_WRITE, RPC_DROP,
                              RPC_RECV, RPC_SEND, SCHEMAS, SLO_SHED,
                              SLO_TRANSITION, SLO_WINDOW, SPAN_OP,
                              SPAN_REQUEST, VERDICT)

#: Every declared topic, in the schema registry's canonical order.
ALL_TOPICS = tuple(SCHEMAS)

# -- span stage names --------------------------------------------------------
#: Fixed OS entry/exit cost (syscall, EBUSY reply).
STAGE_SYSCALL = "syscall"
#: Memory service of a page-cache hit.
STAGE_CACHE = "cache-service"
#: Submit -> dispatch inside the IO scheduler queues.
STAGE_SCHED_QUEUE = "scheduler-queue"
#: Dispatch -> service start inside the device queue (NCQ / chip queue).
STAGE_DEVICE_QUEUE = "device-queue"
#: Service start -> completion at the device.
STAGE_DEVICE_SERVICE = "device-service"
#: Client <-> replica hops of the first attempt.
STAGE_NETWORK_HOP = "network-hop"
#: Extra hops spent failing over to later replicas.
STAGE_FAILOVER_HOP = "failover-hop"
#: Server-side time of an attempt (handler CPU + engine + storage stack).
STAGE_SERVER = "server"
#: Client-side wait that expired (RPC timeout, lost message).
STAGE_TIMEOUT_WAIT = "timeout-wait"
#: Client-side retry backoff sleeps.
STAGE_BACKOFF = "backoff"
#: Waits on racing parallel attempts (hedged/clone fan-out).
STAGE_PARALLEL_WAIT = "parallel-wait"
#: Residual client-side time not attributed to any stage above (should be
#: ~0 for sequential strategies; makes the span invariant exact by
#: construction and *visible* when attribution has a gap).
STAGE_CLIENT_OTHER = "client-other"


def _plain(obj):
    """JSON fallback: unwrap numpy scalars (predictor models emit them)."""
    item = getattr(obj, "item", None)
    if item is not None:
        return item()
    raise TypeError(f"trace field is not JSON-serializable: {obj!r}")


class TraceEvent:
    """One sim-time-stamped, typed event on the bus.

    ``fields`` is a plain dict built in a fixed key order by the emitting
    call site, so the JSON serialization — and therefore the trace hash —
    is deterministic for a given (seed, workload).
    """

    __slots__ = ("time", "topic", "fields")

    def __init__(self, time, topic, fields):
        self.time = time
        self.topic = topic
        self.fields = fields

    def to_dict(self):
        out = {"t": self.time, "topic": self.topic}
        out.update(self.fields)
        return out

    def to_json(self):
        """Canonical one-line JSON form (JSONL export + hashing)."""
        return json.dumps(self.to_dict(), separators=(",", ":"),
                          default=_plain)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        time = d.pop("t")
        topic = d.pop("topic")
        return cls(time, topic, d)

    def __repr__(self):
        return f"<TraceEvent t={self.time:.1f} {self.topic} {self.fields}>"


def request_fields(req):
    """The standard identity fields of a :class:`BlockRequest` event."""
    return {"req": req.req_id, "op": req.op.value, "offset": req.offset,
            "size": req.size, "pid": req.pid}

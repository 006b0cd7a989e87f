"""Per-stage latency attribution from a trace stream.

The observability plane records a ``span.request`` event for every
completed OS read and a ``span.op`` event for every finished client
operation; each carries a ``stages`` dict whose values sum to the event's
``total`` latency (the span invariant, checked in tests).  The
:class:`LatencyBreakdown` reducer folds those events into per-stage
percentile rows — the "where did the milliseconds go" table printed by
``--trace`` runs and ``python -m repro.obs summarize``.
"""

from repro._units import MS
from repro.metrics.latency import percentile
from repro.metrics.tables import format_table
from repro.obs.events import SPAN_OP, SPAN_REQUEST

#: Display order for known stages; unknown stages sort after, by name.
_STAGE_ORDER = [
    "syscall", "cache-service", "scheduler-queue", "device-queue",
    "device-service", "network-hop", "failover-hop", "server",
    "timeout-wait", "backoff", "parallel-wait", "client-other",
]


class LatencyBreakdown:
    """Reduces span events into per-stage latency distributions."""

    def __init__(self):
        #: stage name -> list of per-event stage times (µs).
        self.stage_samples = {}
        #: span kind ("request" / "op") -> list of total latencies (µs).
        self.totals = {"request": [], "op": []}
        self.events = 0

    # -- folding -----------------------------------------------------------
    def add(self, kind, total, stages):
        """Fold one span event (``total`` and stage values in µs)."""
        self.events += 1
        self.totals.setdefault(kind, []).append(total)
        for stage, us in stages.items():
            self.stage_samples.setdefault(stage, []).append(us)

    def observe(self, event):
        """Fold one trace event; anything but a span is ignored."""
        if event.topic == SPAN_REQUEST:
            self.add("request", event.fields["total"], event.fields["stages"])
        elif event.topic == SPAN_OP:
            self.add("op", event.fields["total"], event.fields["stages"])

    @classmethod
    def from_events(cls, events):
        """Build from an iterable of :class:`~repro.obs.events.TraceEvent`
        (or any objects with ``topic``/``fields``), keeping only spans."""
        self = cls()
        for event in events:
            self.observe(event)
        return self

    # -- reporting ---------------------------------------------------------
    @staticmethod
    def _stage_key(stage):
        try:
            return (0, _STAGE_ORDER.index(stage))
        except ValueError:
            return (1, stage)

    def rows(self):
        """(stage, count, p50_ms, p95_ms, p99_ms, total_ms) per stage."""
        out = []
        for stage in sorted(self.stage_samples, key=self._stage_key):
            samples = self.stage_samples[stage]
            out.append((stage, len(samples),
                        percentile(samples, 50) / MS,
                        percentile(samples, 95) / MS,
                        percentile(samples, 99) / MS,
                        sum(samples) / MS))
        return out

    def render(self):
        """The per-stage attribution table (all times in milliseconds)."""
        if not self.events:
            return "(no span events in trace)"
        lines = [format_table(
            ["stage", "count", "p50ms", "p95ms", "p99ms", "total_ms"],
            self.rows(), title="Per-stage latency attribution")]
        for kind in ("request", "op"):
            totals = self.totals.get(kind)
            if totals:
                lines.append(
                    f"{kind} spans: n={len(totals)}  "
                    f"p50={percentile(totals, 50) / MS:.2f}ms  "
                    f"p95={percentile(totals, 95) / MS:.2f}ms  "
                    f"p99={percentile(totals, 99) / MS:.2f}ms")
        return "\n".join(lines)

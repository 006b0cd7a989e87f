"""Prediction-accuracy observatory: join verdicts against outcomes.

MittOS's core claim is that the OS predicts IO wait accurately enough to
reject *in time* (§5; Figure 7/9's false-accept / false-reject
accounting).  The trace plane already records both sides of that claim —
``predictor.verdict`` carries the decision plus predicted wait/service,
``io.complete`` carries the actual latency — but nothing joined them.
:class:`AccuracyJoiner` is that join, as a streaming reducer over the
TraceBus event stream (live recorder or a JSONL export):

* every graded decision yields a :class:`PredictionRecord` with the
  predicted total (wait + service), the actual decision-to-completion
  wait, and the **signed error** (actual − predicted; positive means the
  predictor was optimistic);
* every decision lands in one cell of the 2×2 confusion table against
  the request's SLO: **true accept** (admitted, met the deadline),
  **false accept** (admitted, missed it), **true reject** (EBUSY'd and
  the IO would indeed have missed), **false reject** (EBUSY'd although
  the actual wait would have fit);
* records aggregate per ``(device kind, scheduler, device)`` group into
  deterministic signed-error CDFs (P50/P95/P99 via the same linear
  interpolation as every other table in the repo).

Grading needs the *actual* wait, so a rejected IO is gradeable only when
it still ran — shadow mode (§7.6), exactly the paper's methodology.
Non-shadow rejections, addrcheck probes (their probe request is never
submitted), late cancellations (revoked before reaching the device) and
decisions still unresolved at end of trace are counted separately rather
than silently dropped.

A shadow-mode MittCFQ bump-back (§4.2, ``predictor.late_reject``) turns
the pending decision into a reject.  This is the repo's one accuracy
grader: fig9 feeds it records built off completed requests
(:meth:`AccuracyJoiner.add`), and tail forensics reads its false accepts.

The classification threshold is the SLO itself (``actual <= deadline``);
the predictor's admission test deliberately allows one extra failover
hop, so a small optimistic band of accepts is *expected* to grade as
false accepts when the hop allowance is nonzero.
"""

from repro.metrics.latency import percentile
from repro.metrics.tables import format_table
from repro.obs.events import IO_CANCEL, IO_COMPLETE, LATE_REJECT, VERDICT

#: Confusion-table cell names, in render order.
TRUE_ACCEPT = "true_accept"
FALSE_ACCEPT = "false_accept"
TRUE_REJECT = "true_reject"
FALSE_REJECT = "false_reject"
CELLS = (TRUE_ACCEPT, FALSE_ACCEPT, TRUE_REJECT, FALSE_REJECT)


class PredictionRecord:
    """One graded admission decision (verdict joined to its completion)."""

    __slots__ = ("req", "group", "accept", "deadline", "predicted",
                 "verdict_time", "complete_time", "actual", "cell")

    def __init__(self, req, group, accept, deadline, predicted,
                 verdict_time, complete_time):
        self.req = req
        self.group = group            # (dev_kind, sched, device)
        self.accept = accept
        self.deadline = deadline
        self.predicted = predicted    # predicted wait + service (µs)
        self.verdict_time = verdict_time
        self.complete_time = complete_time
        self.actual = complete_time - verdict_time  # the wait (µs)
        violated = self.actual > deadline
        if accept:
            self.cell = FALSE_ACCEPT if violated else TRUE_ACCEPT
        else:
            self.cell = TRUE_REJECT if violated else FALSE_REJECT

    @property
    def error(self):
        """Signed prediction error (µs): actual − predicted."""
        return self.actual - self.predicted

    def __repr__(self):
        return (f"<PredictionRecord req={self.req} {self.cell} "
                f"predicted={self.predicted:.0f}us "
                f"actual={self.actual:.0f}us>")


class _PendingVerdict:
    """A decision awaiting its outcome."""

    __slots__ = ("time", "group", "accept", "deadline", "predicted")

    def __init__(self, time, group, accept, deadline, predicted):
        self.time = time
        self.group = group
        self.accept = accept
        self.deadline = deadline
        self.predicted = predicted


def group_of(fields):
    """(dev_kind, sched, device) from an enriched verdict event (or a
    predictor's :meth:`~repro.mittos.predictor.Predictor.verdict_labels`)."""
    return (fields.get("dev_kind", "?"), fields.get("sched", "?"),
            fields.get("device", "?"))


class AccuracyJoiner:
    """Streaming joiner: verdicts in, graded prediction records out.

    Feed it :class:`~repro.obs.events.TraceEvent` objects in trace order
    (``observe`` one at a time, or :meth:`from_events` / ``consume`` for
    a batch) and call :meth:`finalize` when the stream ends.  Requests
    are keyed by ``req`` id; a *fresh* verdict for an id that is still
    pending means a new ``Simulator`` restarted request numbering
    (experiments run one simulator per strategy line), so the stale
    pending entry is flushed to ``unresolved`` instead of mis-joining
    across runs.
    """

    def __init__(self):
        #: req id -> _PendingVerdict awaiting io.complete / io.cancel.
        self._pending = {}
        self.records = []
        #: Ungradeable decisions, by reason.
        self.probes = 0
        self.unenforced_rejects = 0   # rejected, IO never ran (no shadow)
        self.late_cancels = 0         # accepted then revoked in-queue
        self.unmatched_completions = 0  # completion with no verdict
        self.unresolved = 0           # verdict never resolved (see finalize)
        self._finalized = False

    # -- streaming ---------------------------------------------------------
    def observe(self, event):
        """Fold one trace event; non-accuracy topics are ignored."""
        topic = event.topic
        if topic == VERDICT:
            self._on_verdict(event)
        elif topic == IO_COMPLETE:
            self._on_complete(event)
        elif topic == IO_CANCEL:
            self._on_cancel(event)
        elif topic == LATE_REJECT:
            self._on_late_reject(event)

    def consume(self, events):
        for event in events:
            self.observe(event)
        return self

    @classmethod
    def from_events(cls, events):
        """Build from a finished trace (finalizes pending verdicts)."""
        return cls().consume(events).finalize()

    def _on_verdict(self, event):
        fields = event.fields
        if fields.get("probe"):
            # Probe (addrcheck) requests are never submitted: the probe's
            # req id never completes, so it can never be graded.
            self.probes += 1
            return
        req = fields.get("req")
        stale = self._pending.pop(req, None)
        if stale is not None:
            # Same req id seen again before resolving: request numbering
            # restarted with a fresh Simulator.  Flush, don't mis-join.
            self.unresolved += 1
        accept = bool(fields.get("accept"))
        if not accept and not fields.get("shadow"):
            # Enforced EBUSY: the IO never runs, the true wait is
            # unknowable.  Counted, not graded (the paper's accuracy
            # tests run in shadow mode for exactly this reason).
            self.unenforced_rejects += 1
            return
        wait = fields.get("predicted_wait") or 0.0
        service = fields.get("predicted_service") or 0.0
        deadline = fields.get("deadline")
        if deadline is None:
            return
        self._pending[req] = _PendingVerdict(
            event.time, group_of(fields), accept, deadline, wait + service)

    def add(self, record):
        """Fold one graded :class:`PredictionRecord` (the trace join's,
        or one built straight off a completed request, as fig9 does)."""
        self.records.append(record)

    def _on_complete(self, event):
        req = event.fields.get("req")
        pending = self._pending.pop(req, None)
        if pending is None:
            self.unmatched_completions += 1
            return
        self.add(PredictionRecord(
            req, pending.group, pending.accept, pending.deadline,
            pending.predicted, pending.time, event.time))

    def _on_late_reject(self, event):
        pending = self._pending.get(event.fields.get("req"))
        if pending is not None:
            # Shadow-mode bump-back: the decision became EBUSY after
            # admission, but the IO still runs and grades as a reject.
            pending.accept = False

    def _on_cancel(self, event):
        pending = self._pending.pop(event.fields.get("req"), None)
        if pending is not None:
            # Accepted, then revoked while still queued (MittCFQ's
            # bump-back late rejection): the decision *became* a reject
            # and the IO never ran — ungradeable, like enforced EBUSY.
            self.late_cancels += 1

    def finalize(self):
        """Flush verdicts whose outcome never arrived (end of trace)."""
        self.unresolved += len(self._pending)
        self._pending.clear()
        self._finalized = True
        return self

    # -- aggregation -------------------------------------------------------
    def confusion(self):
        """Total 2×2 cell counts across all groups."""
        totals = dict.fromkeys(CELLS, 0)
        for record in self.records:
            totals[record.cell] += 1
        return totals

    @property
    def graded(self):
        return len(self.records)

    def error_rows(self):
        """Per-group signed-error stats:
        (group, n, p50, p95, p99, mean |error|) — all µs."""
        by_group = {}
        for record in self.records:
            by_group.setdefault(record.group, []).append(record.error)
        rows = []
        for group in sorted(by_group):
            errors = by_group[group]
            rows.append((group, len(errors),
                         percentile(errors, 50), percentile(errors, 95),
                         percentile(errors, 99),
                         sum(abs(e) for e in errors) / len(errors)))
        return rows

    # -- reporting ---------------------------------------------------------
    def render(self):
        if not self._finalized:
            self.finalize()
        lines = []
        rows = [
            [f"{kind}/{sched}/{dev}", n,
             round(p50, 1), round(p95, 1), round(p99, 1), round(mae, 1)]
            for (kind, sched, dev), n, p50, p95, p99, mae
            in self.error_rows()
        ]
        if rows:
            lines.append(format_table(
                ["device", "n", "err_p50us", "err_p95us", "err_p99us",
                 "mean|err|us"],
                rows,
                title="Prediction error (actual − predicted, µs) "
                      "per (device kind, scheduler, node)"))
        else:
            lines.append("(no gradeable admission decisions in trace)")
        cells = self.confusion()
        total = self.graded
        lines.append("")
        lines.append(f"Admission confusion ({total} graded decisions, "
                     "SLO = request deadline):")
        lines.append(format_table(
            ["decision", "met SLO", "missed SLO"],
            [["admitted", cells[TRUE_ACCEPT], cells[FALSE_ACCEPT]],
             ["rejected", cells[FALSE_REJECT], cells[TRUE_REJECT]]]))
        if total:
            wrong = cells[FALSE_ACCEPT] + cells[FALSE_REJECT]
            lines.append(f"inaccuracy: {100.0 * wrong / total:.2f}%  "
                         f"(false-accept {cells[FALSE_ACCEPT]}, "
                         f"false-reject {cells[FALSE_REJECT]})")
        lines.append(
            f"ungraded: probes={self.probes}  "
            f"enforced-rejects={self.unenforced_rejects}  "
            f"late-cancels={self.late_cancels}  "
            f"completions-without-verdict={self.unmatched_completions}  "
            f"unresolved={self.unresolved}")
        return "\n".join(lines)

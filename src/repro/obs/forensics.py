"""Tail forensics: why was each individual slow request slow?

The observability plane can already say *that* p99 is high — the
:class:`~repro.metrics.breakdown.LatencyBreakdown` stage table and the
accuracy observatory aggregate the whole trace.  This module answers the
per-request question: for every completed span whose end-to-end latency
exceeds a threshold (an absolute ``--threshold-us``, or a percentile
computed from the same trace), reconstruct its causal chain and name the
*dominant blame*.

:class:`TailForensics` is a streaming reducer over the trace plane.  One
pass builds a small context index from the non-span topics:

* ``fault.transition`` events paired into **windows** — ``crash`` ..
  ``restart`` per node, ``fail-slow`` on .. off per node (off = factors
  back to 1.0), ``storm-on`` .. ``storm-off`` per device; a window still
  open at end of trace closes at +inf;
* ``rpc.drop`` instants (message loss, partitions);
* ``slo.shed`` admission-guard rejections (tiered backpressure);
* ``strategy.decision`` failover/timeout moves;
* **false-accepts**: ``predictor.verdict``, ``predictor.late_reject``,
  ``io.complete`` and ``io.cancel`` feed an
  :class:`~repro.obs.accuracy.AccuracyJoiner`, and forensics keeps the
  decisions it grades false_accept (admitted, then missed the deadline).

Each flagged span's ``stages`` partition is then *charged*, stage by
stage, to one of the seven blame classes of
:data:`repro.metrics.blame.BLAME_ORDER` by overlapping the span's
``[end - total, end]`` window against that index.  Charging is a pure
regrouping of the span's stage values, so two identities hold by
construction (and are tested):

* per request, charged µs sum to the end-to-end latency within
  ``SPAN_SUM_TOLERANCE_US`` (the span invariant carries over);
* per report, the per-class charged µs sum to the total tail mass.

Everything is post-hoc: the engine consumes a finished trace (live
recorder events or a JSONL export) and adds no hot-path work — report
determinism is inherited from trace determinism (which
``python -m repro.analysis check`` gates), so same-seed blame reports
are byte-identical.

Entry points: ``python -m repro.obs tails`` (threshold/percentile,
``--against`` cross-run diff, ``--json``), the experiments CLI's
``--tails`` flag, and :func:`diff_reports` for "why did p99 regress
between run A and run B".
"""

import json
from bisect import bisect_left

from repro._units import MS
from repro.metrics.blame import (BLAME_CLIENT_OTHER, BLAME_DEVICE_QUEUEING,
                                 BLAME_DEVICE_STORM, BLAME_FAILOVER_CHAIN,
                                 BLAME_NETWORK_LOSS, BLAME_ORDER,
                                 BLAME_PREDICTOR_MISS, BLAME_SHED_WAIT,
                                 BlameShare, blame_key)
from repro.metrics.latency import percentile
from repro.obs.accuracy import FALSE_ACCEPT, AccuracyJoiner
from repro.obs.events import (DECISION, FAULT, IO_CANCEL, IO_COMPLETE,
                              LATE_REJECT, RPC_DROP, SLO_SHED, SPAN_OP,
                              SPAN_REQUEST, STAGE_BACKOFF,
                              STAGE_DEVICE_QUEUE, STAGE_DEVICE_SERVICE,
                              STAGE_FAILOVER_HOP, STAGE_PARALLEL_WAIT,
                              STAGE_SCHED_QUEUE, STAGE_SERVER,
                              STAGE_TIMEOUT_WAIT, VERDICT)

#: Event references kept per (request, blame class) — enough to point a
#: human at the causal events without ballooning the JSON report.
MAX_EVIDENCE = 3

#: Default flagging percentile when neither an absolute threshold nor an
#: explicit percentile is given: the classic tail question, "the p99".
DEFAULT_PERCENTILE = 99.0

# -- stage -> blame routing --------------------------------------------------
#: Client-side waits that expired or backed off (lost/late replies).
_WAIT_STAGES = frozenset({STAGE_TIMEOUT_WAIT, STAGE_BACKOFF})
#: Time spent *inside* an attempt, as the client op span sees it.
_SERVER_STAGES = frozenset({STAGE_SERVER, STAGE_PARALLEL_WAIT})
#: Kernel-side queueing/service stages of a request span.
_DEVICE_STAGES = frozenset({STAGE_SCHED_QUEUE, STAGE_DEVICE_QUEUE,
                            STAGE_DEVICE_SERVICE})
#: strategy.decision kinds that witness a failover chain.
_FAILOVER_DECISIONS = frozenset({"rpc-timeout", "coarse-timeout",
                                 "timeout-failover", "eio-failover",
                                 "ebusy-failover", "all-busy"})
#: Topics the accuracy joiner grades decisions from.
_ACCURACY_TOPICS = frozenset({VERDICT, LATE_REJECT, IO_COMPLETE, IO_CANCEL})


def _dominant(charged):
    """Highest-charged class; exact ties break to canonical order."""
    if not charged:
        return BLAME_CLIENT_OTHER
    return max(charged, key=lambda b: (charged[b], -BLAME_ORDER.index(b)))


def _overlap(windows, start, end):
    """First ``(w_start, w_end, note)`` window overlapping [start, end]."""
    for window in windows:
        if window[0] < end and window[1] > start:
            return window
    return None


def _window_ref(window):
    w_start, w_end, note = window
    until = "end-of-trace" if w_end == float("inf") else f"t={w_end:.1f}"
    return f"t={w_start:.1f} {FAULT} {note} (until {until})"


def _refs_between(times, start, end, topic, note):
    """Evidence refs for the sorted instants of ``times`` in [start, end)."""
    i = bisect_left(times, start)
    j = bisect_left(times, end)
    if j <= i:
        return ()
    refs = [f"t={t:.1f} {topic} {note}"
            for t in times[i:min(j, i + MAX_EVIDENCE)]]
    if j - i > MAX_EVIDENCE:
        refs[-1] += f" (+{j - i - MAX_EVIDENCE} more)"
    return tuple(refs)


class RequestBlame:
    """One flagged tail request: per-class charged µs, evidence, verdict."""

    __slots__ = ("kind", "time", "total", "outcome", "ident", "stages",
                 "charged", "evidence", "blame")

    def __init__(self, kind, time, total, outcome, ident, stages, charged,
                 evidence):
        self.kind = kind            # "op" or "request"
        self.time = time            # completion time (µs, sim clock)
        self.total = total          # end-to-end latency (µs)
        self.outcome = outcome
        self.ident = ident          # identity fields (strategy/key or req)
        self.stages = stages        # ((stage, µs, blame), ...) charge log
        self.charged = charged      # blame class -> charged µs
        self.evidence = evidence    # blame class -> (ref string, ...)
        self.blame = _dominant(charged)

    def to_dict(self):
        out = {"kind": self.kind, "t": round(self.time, 3),
               "total_us": round(self.total, 3), "outcome": self.outcome,
               "blame": self.blame,
               "charged_us": {b: round(us, 3)
                              for b, us in self.charged.items()},
               "evidence": {b: list(refs)
                            for b, refs in self.evidence.items()}}
        out.update(self.ident)
        return out

    def timeline(self):
        """The exemplar timeline: stage-by-stage charges plus evidence."""
        ident = " ".join(f"{k}={v}" for k, v in self.ident.items())
        lines = [f"t={self.time:.1f} {self.kind} [{ident}] "
                 f"outcome={self.outcome} total={self.total / MS:.2f}ms "
                 f"-> {self.blame}"]
        for stage, us, blame in self.stages:
            lines.append(f"    {stage:16s} {us / MS:9.3f}ms -> {blame}")
        for blame in sorted(self.evidence, key=blame_key):
            for ref in self.evidence[blame]:
                lines.append(f"      [{blame}] {ref}")
        return "\n".join(lines)

    def __repr__(self):
        return (f"<RequestBlame t={self.time:.1f} {self.kind} "
                f"{self.blame} total={self.total:.0f}us>")


class TailForensics:
    """Streaming tail-forensics engine over one trace.

    Feed :class:`~repro.obs.events.TraceEvent` objects in trace order
    (``observe`` one at a time, or ``consume``/``from_events`` for a
    batch), ``finalize`` at end of stream, then ask for a
    :meth:`report`.  Only span events, a small context index and the
    joiner's graded decisions are retained, so JSONL traces can be
    streamed (``iter_jsonl``) without a full in-memory load.
    """

    def __init__(self):
        self.ops = []            # (completion time, fields) of span.op
        self.requests = []       # (completion time, fields) of span.request
        self.drops = []          # rpc.drop times
        self.sheds = []          # slo.shed times
        self.decisions = []      # (time, kind) of strategy.decision
        self.crash_windows = []  # (start, end, note)
        self.slow_windows = []   # (start, end, note): storm + fail-slow
        self.false_accepts = []  # (verdict time, completion time, req)
        self._open_crash = {}    # node -> (start, note)
        self._open_slow = {}     # ("storm", dev) / ("fail-slow", node)
        self._accuracy = AccuracyJoiner()
        self._finalized = False

    # -- streaming ---------------------------------------------------------
    def observe(self, event):
        """Fold one trace event; topics forensics ignores cost one test."""
        topic = event.topic
        if topic == SPAN_OP:
            self.ops.append((event.time, event.fields))
        elif topic == SPAN_REQUEST:
            self.requests.append((event.time, event.fields))
        elif topic == FAULT:
            self._on_fault(event)
        elif topic == RPC_DROP:
            self.drops.append(event.time)
        elif topic == SLO_SHED:
            self.sheds.append(event.time)
        elif topic == DECISION:
            self.decisions.append((event.time, event.fields["kind"]))
        elif topic in _ACCURACY_TOPICS:
            self._accuracy.observe(event)

    def consume(self, events):
        for event in events:
            self.observe(event)
        return self

    @classmethod
    def from_events(cls, events):
        """Build from a finished trace (closes open fault windows)."""
        return cls().consume(events).finalize()

    def _on_fault(self, event):
        fields = event.fields
        kind = fields["kind"]
        time = event.time
        if kind == "crash":
            node = fields.get("node")
            self._open_crash[node] = (time, f"crash node={node}")
        elif kind == "restart":
            open_window = self._open_crash.pop(fields.get("node"), None)
            if open_window is not None:
                self.crash_windows.append(
                    (open_window[0], time, open_window[1]))
        elif kind == "storm-on":
            device = fields.get("device")
            self._open_slow[("storm", device)] = (
                time, f"storm-on device={device} "
                      f"x{fields.get('factor')}")
        elif kind == "storm-off":
            open_window = self._open_slow.pop(
                ("storm", fields.get("device")), None)
            if open_window is not None:
                self.slow_windows.append(
                    (open_window[0], time, open_window[1]))
        elif kind == "fail-slow":
            node = fields.get("node")
            cpu = fields.get("cpu_factor")
            dev = fields.get("device_factor")
            key = ("fail-slow", node)
            if (cpu is not None and cpu > 1.0) or \
                    (dev is not None and dev > 1.0):
                self._open_slow[key] = (
                    time, f"fail-slow node={node} cpu=x{cpu} device=x{dev}")
            else:
                open_window = self._open_slow.pop(key, None)
                if open_window is not None:
                    self.slow_windows.append(
                        (open_window[0], time, open_window[1]))

    def finalize(self):
        """Close still-open fault windows at +inf; sort the index."""
        for start, note in self._open_crash.values():
            self.crash_windows.append((start, float("inf"), note))
        self._open_crash.clear()
        for start, note in self._open_slow.values():
            self.slow_windows.append((start, float("inf"), note))
        self._open_slow.clear()
        self.false_accepts = sorted(
            (record.verdict_time, record.complete_time, record.req)
            for record in self._accuracy.finalize().records
            if record.cell == FALSE_ACCEPT)
        self.crash_windows.sort()
        self.slow_windows.sort()
        self.drops.sort()
        self.sheds.sort()
        self.decisions.sort()
        self._finalized = True
        return self

    # -- classification ----------------------------------------------------
    def _false_accept_in(self, start, end, req=None):
        """A false-accept whose verdict..completion overlaps the span
        (and matches ``req`` when the span carries a request id)."""
        for verdict_time, complete_time, fa_req in self.false_accepts:
            if verdict_time >= end:
                break
            if complete_time <= start:
                continue
            if req is not None and fa_req != req:
                continue
            return (verdict_time, complete_time, fa_req)
        return None

    def _failover_refs(self, start, end):
        refs = []
        for time, kind in self.decisions:
            if time >= end:
                break
            if time < start or kind not in _FAILOVER_DECISIONS:
                continue
            refs.append(f"t={time:.1f} {DECISION} {kind}")
            if len(refs) == MAX_EVIDENCE:
                break
        if refs:
            return tuple(refs)
        crash = _overlap(self.crash_windows, start, end)
        return (_window_ref(crash),) if crash is not None else ()

    def _stage_blame(self, stage, start, end, req):
        """(blame class, evidence refs) for one stage of one span."""
        if stage in _WAIT_STAGES:
            drops = _refs_between(self.drops, start, end, RPC_DROP,
                                  "message lost")
            if drops:
                return BLAME_NETWORK_LOSS, drops
            crash = _overlap(self.crash_windows, start, end)
            if crash is not None:
                return BLAME_FAILOVER_CHAIN, (_window_ref(crash),)
            # A timeout with neither a drop nor a crash in view is still
            # a network-shaped wait (e.g. a reply outrun by its timer).
            return BLAME_NETWORK_LOSS, ()
        if stage == STAGE_FAILOVER_HOP:
            sheds = _refs_between(self.sheds, start, end, SLO_SHED,
                                  "read shed by admission guard")
            if sheds:
                return BLAME_SHED_WAIT, sheds
            return BLAME_FAILOVER_CHAIN, self._failover_refs(start, end)
        if stage in _SERVER_STAGES or stage in _DEVICE_STAGES:
            false_accept = self._false_accept_in(start, end, req)
            if false_accept is not None:
                verdict_time, complete_time, fa_req = false_accept
                return BLAME_PREDICTOR_MISS, (
                    f"t={verdict_time:.1f} {VERDICT} false-accept "
                    f"req={fa_req} completed t={complete_time:.1f}",)
            slow = _overlap(self.slow_windows, start, end)
            if slow is not None:
                return BLAME_DEVICE_STORM, (_window_ref(slow),)
            return BLAME_DEVICE_QUEUEING, ()
        # syscall, cache-service, network-hop, client-other, unknown.
        return BLAME_CLIENT_OTHER, ()

    def _classify(self, kind, end, fields):
        total = fields["total"]
        start = end - total
        req = fields.get("req") if kind == "request" else None
        charged, evidence, stage_rows = {}, {}, []
        for stage, us in fields["stages"].items():
            if not us:
                continue
            blame, refs = self._stage_blame(stage, start, end, req)
            stage_rows.append((stage, us, blame))
            charged[blame] = charged.get(blame, 0.0) + us
            if refs:
                existing = evidence.setdefault(blame, [])
                for ref in refs:
                    if ref not in existing and len(existing) < MAX_EVIDENCE:
                        existing.append(ref)
        if kind == "op":
            ident = {"strategy": fields["strategy"], "key": fields["key"],
                     "attempts": fields["attempts"],
                     "timeouts": fields["timeouts"]}
        else:
            ident = {k: fields[k] for k in ("req", "pid") if k in fields}
        return RequestBlame(
            kind, end, total, fields["outcome"], ident, tuple(stage_rows),
            charged, {b: tuple(refs) for b, refs in evidence.items()})

    # -- reporting ---------------------------------------------------------
    def report(self, threshold_us=None, pct=None, label=""):
        """Classify every span above the threshold into a
        :class:`BlameReport`.

        ``threshold_us`` (absolute) wins over ``pct`` (percentile of the
        same trace's span totals; default p99).  The span level analyzed
        is client ops when the trace has any (``span.request`` would
        double-count the same tail mass), kernel request spans otherwise.
        """
        if not self._finalized:
            self.finalize()
        kind = "op" if self.ops else "request"
        spans = self.ops if kind == "op" else self.requests
        totals = [fields["total"] for _, fields in spans]
        if threshold_us is not None:
            mode = "absolute"
        else:
            pct = DEFAULT_PERCENTILE if pct is None else float(pct)
            threshold_us = percentile(totals, pct) if totals else 0.0
            mode = f"p{pct:g}"
        flagged = [self._classify(kind, end, fields)
                   for end, fields in spans
                   if fields["total"] > threshold_us]
        flagged.sort(key=lambda blamed: (-blamed.total, blamed.time))
        return BlameReport(
            kind=kind, mode=mode, threshold_us=threshold_us,
            spans=len(spans), flagged=tuple(flagged),
            p50_us=percentile(totals, 50) if totals else 0.0,
            p95_us=percentile(totals, 95) if totals else 0.0,
            p99_us=percentile(totals, 99) if totals else 0.0,
            label=label)


class BlameReport:
    """Deterministic aggregate of one run's flagged tail requests."""

    def __init__(self, kind, mode, threshold_us, spans, flagged,
                 p50_us, p95_us, p99_us, label=""):
        self.kind = kind
        self.mode = mode
        self.threshold_us = threshold_us
        self.spans = spans            # completed spans of this kind
        self.flagged = flagged        # RequestBlame, worst-first
        self.p50_us = p50_us
        self.p95_us = p95_us
        self.p99_us = p99_us
        self.label = label
        self.share = BlameShare()
        for blamed in flagged:
            self.share.add(blamed.blame, blamed.total, blamed.charged)

    @property
    def tail_mass_us(self):
        """Total end-to-end µs of all flagged requests."""
        return self.share.total_us

    def to_dict(self):
        return {
            "kind": self.kind, "mode": self.mode,
            "threshold_us": round(self.threshold_us, 3),
            "spans": self.spans, "flagged": len(self.flagged),
            "p50_us": round(self.p50_us, 3),
            "p95_us": round(self.p95_us, 3),
            "p99_us": round(self.p99_us, 3),
            "tail_mass_us": round(self.tail_mass_us, 3),
            "classes": self.share.to_dict(),
            "requests": [blamed.to_dict() for blamed in self.flagged],
        }

    def to_json(self):
        """Canonical JSON (byte-identical across same-seed runs)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render(self, top=3):
        lines = [f"tail forensics ({self.kind} spans"
                 + (f", {self.label}" if self.label else "") + "): "
                 f"threshold {self.threshold_us / MS:.2f}ms ({self.mode}) "
                 f"-> {len(self.flagged)}/{self.spans} flagged, "
                 f"tail mass {self.tail_mass_us / MS:.2f}ms",
                 f"span latency: p50={self.p50_us / MS:.2f}ms  "
                 f"p95={self.p95_us / MS:.2f}ms  "
                 f"p99={self.p99_us / MS:.2f}ms"]
        if not self.flagged:
            lines.append("(no spans above threshold)")
            return "\n".join(lines)
        lines.append("")
        lines.append(self.share.render(
            title="Tail blame (n = requests with this dominant class; "
                  "charged µs across all flagged)"))
        if top:
            shown = self.flagged[:top]
            lines.append("")
            lines.append(f"exemplar timelines (top {len(shown)} by total):")
            for blamed in shown:
                lines.append(blamed.timeline())
        return "\n".join(lines)


class BlameDiff:
    """Cross-run blame delta: why did the tail regress from A to B?"""

    def __init__(self, report_a, report_b, label_a="a", label_b="b"):
        self.report_a = report_a
        self.report_b = report_b
        self.label_a = label_a
        self.label_b = label_b

    def class_deltas(self):
        """(blame, count_a, count_b, us_a, us_b) sorted by the size of
        the charged-µs delta (the classes explaining the gap first)."""
        share_a, share_b = self.report_a.share, self.report_b.share
        blames = (set(share_a.counts) | set(share_a.charged_us)
                  | set(share_b.counts) | set(share_b.charged_us))
        rows = [(blame,
                 share_a.counts.get(blame, 0), share_b.counts.get(blame, 0),
                 share_a.charged_us.get(blame, 0.0),
                 share_b.charged_us.get(blame, 0.0))
                for blame in blames]
        rows.sort(key=lambda r: (-abs(r[4] - r[3]), blame_key(r[0])))
        return rows

    def to_dict(self):
        return {
            "a": {"label": self.label_a, **self.report_a.to_dict()},
            "b": {"label": self.label_b, **self.report_b.to_dict()},
            "deltas": [
                {"blame": blame, "count_a": count_a, "count_b": count_b,
                 "charged_us_a": round(us_a, 3),
                 "charged_us_b": round(us_b, 3),
                 "delta_us": round(us_b - us_a, 3)}
                for blame, count_a, count_b, us_a, us_b
                in self.class_deltas()],
        }

    def render(self):
        a, b = self.report_a, self.report_b
        lines = [f"tail blame diff: A={self.label_a}  B={self.label_b}",
                 f"p99: {a.p99_us / MS:.2f}ms -> {b.p99_us / MS:.2f}ms "
                 f"({(b.p99_us - a.p99_us) / MS:+.2f}ms)   "
                 f"flagged: {len(a.flagged)} -> {len(b.flagged)}   "
                 f"tail mass: {a.tail_mass_us / MS:.2f}ms -> "
                 f"{b.tail_mass_us / MS:.2f}ms"]
        deltas = self.class_deltas()
        if not deltas:
            lines.append("(no flagged tail requests in either run)")
            return "\n".join(lines)
        lines.append("blame-class deltas (charged ms, A -> B, largest "
                     "movement first):")
        for blame, count_a, count_b, us_a, us_b in deltas:
            lines.append(f"  {blame:18s} {us_a / MS:9.2f} -> "
                         f"{us_b / MS:9.2f}  ({(us_b - us_a) / MS:+9.2f})"
                         f"   n {count_a} -> {count_b}")
        return "\n".join(lines)


def diff_reports(report_a, report_b, label_a="a", label_b="b"):
    """Compare two :class:`BlameReport` objects into a :class:`BlameDiff`."""
    return BlameDiff(report_a, report_b, label_a=label_a, label_b=label_b)

"""repro.obs — the traced IO-path spine (observability plane).

One :class:`TraceBus` per :class:`~repro.sim.core.Simulator` carries
typed, sim-time-stamped events from every layer (syscall, scheduler,
device, predictor, cache, network, strategies, fault plane) plus
per-request/per-op latency spans that provably sum to end-to-end latency.

Tracing is off by default (:class:`NullRecorder`: a single flag check per
emit site).  Turn it on per-simulator::

    rec = TraceRecorder()
    sim = Simulator(seed=7, recorder=rec)

or ambiently (what ``python -m repro.experiments <id> --trace`` does)::

    with tracing(TraceRecorder()) as rec:
        run_experiment()
    print(LatencyBreakdown.from_events(rec.events).render())

Second-story consumers of the stream (this package too):

* :mod:`repro.obs.accuracy` — prediction-accuracy observatory: joins
  ``predictor.verdict`` to ``io.complete`` into signed-error CDFs and
  the accept/reject confusion table (``python -m repro.obs accuracy``);
* :mod:`repro.obs.registry` — metrics registry: counters, gauges,
  histograms, utilization/queue-depth time series, byte-stable JSON
  snapshots (``--metrics`` on the experiments CLI);
* :mod:`repro.obs.diff` — trace diff (``python -m repro.obs diff``);
* :mod:`repro.obs.forensics` — tail forensics: per-request blame
  attribution with event-ref evidence, plus the cross-run blame diff
  (``python -m repro.obs tails [--against]``).

``python -m repro.obs summarize trace.jsonl`` renders an exported trace;
``python -m repro.obs smoke`` is the trace-determinism CI gate and
``perfguard`` the kernel microbench trend gate.  Host wall-clock per
layer (exclusive self time) comes from
``python3 benchmarks/e2e/run.py --workload W --trace 1``.
"""

from repro.obs import events
from repro.obs.accuracy import AccuracyJoiner, PredictionRecord
from repro.obs.bus import (NullRecorder, TraceBus, TraceFormatError,
                           TraceRecorder, default_paranoid,
                           default_recorder, install_tracing, iter_jsonl,
                           open_trace, read_jsonl, reset_tracing, tracing)
from repro.obs.diff import TraceDiff, diff_traces
from repro.obs.events import TraceEvent
from repro.obs.forensics import (BlameDiff, BlameReport, RequestBlame,
                                 TailForensics, diff_reports)
from repro.obs.registry import MeteredRecorder, MetricsRegistry
from repro.obs.spans import (SPAN_SUM_TOLERANCE_US, check_span_invariant,
                             request_spans, spans_sum)

__all__ = [
    "events", "TraceBus", "TraceEvent", "TraceRecorder", "NullRecorder",
    "TraceFormatError", "tracing", "install_tracing", "reset_tracing",
    "default_recorder", "default_paranoid", "read_jsonl", "iter_jsonl",
    "open_trace", "AccuracyJoiner", "PredictionRecord", "MetricsRegistry",
    "MeteredRecorder", "TraceDiff", "diff_traces", "TailForensics",
    "BlameReport", "BlameDiff", "RequestBlame", "diff_reports",
    "request_spans", "spans_sum", "check_span_invariant",
    "SPAN_SUM_TOLERANCE_US",
]

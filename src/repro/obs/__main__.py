"""CLI for the observability plane.

Every report is a reducer over recorded events: a trace file streamed off
disk, or a registered scenario run once under a plain
:class:`~repro.obs.bus.TraceRecorder` and folded after it ends.  A bad
invocation (unknown scenario, numeric option out of range) prints one
``error:`` line and exits 2.

``python -m repro.obs summarize <trace.jsonl> [--top N]``
    Reduce an exported trace into the per-stage latency attribution table
    plus per-topic event counts (``--top`` bounds the topic table).

``python -m repro.obs accuracy [--scenario ID] [--seed N] [--snapshot P]``
    The prediction-accuracy observatory: run a scenario, join
    ``predictor.verdict`` against ``io.complete``, and print the
    per-device signed-error P50/P95/P99 table plus the 2x2
    accept/reject confusion table (the paper's §7.6 / Figure 9
    methodology).  ``--snapshot`` writes the metrics registry folded from
    the same events, its time series sampled up to the scenario's end.
    Output derives only from sim-clock events and every table is
    sort-keyed, so two same-seed runs print byte-identical reports and
    snapshots.

``python -m repro.obs tails [TRACE | --scenario ID] [--threshold-us N |
--percentile P] [--against OTHER] [--json | --top K]``
    Tail forensics: for every span above the threshold (default: the
    trace's own p99), attribute its latency to blame classes
    (device-queueing, device-storm, network-loss-retry, failover-chain,
    shed-wait, predictor-miss, client-other) by joining fault windows,
    drops, sheds, failover decisions, and false-accept verdicts — with
    event-ref evidence per class.  ``--against`` diffs two runs' blame
    reports ("why did p99 regress"); traces are streamed, ``.gz`` works.

``python -m repro.obs schema [--markdown]``
    The topic/payload reference, straight from ``repro.obs.schema``.
    ``--markdown`` renders the table checked into DESIGN.md §8.

``python -m repro.obs diff <a.jsonl> <b.jsonl> [--canonical]``
    Trace diff: first divergent timestamp group + per-topic count deltas
    between two traces of the same (seed, workload).  Exits 0 when the
    traces agree, 1 when they diverge or cannot be read.

Host speed is not measured here.  ``python3 benchmarks/compare.py --base
REV`` times the repo benchmark on REV and on the working tree, and
``python3 benchmarks/e2e/run.py --workload W --trace 1`` shows where host
time goes, layer by layer.
"""

import argparse
import sys

from repro.metrics.breakdown import LatencyBreakdown
from repro.obs.bus import TraceFormatError, TraceRecorder, iter_jsonl


def _usage_error(message):
    """One ``error:`` line; returns the exit status of a bad invocation."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _stream_into(path, reducers):
    """Stream a JSONL trace into ``observe``-style reducers.

    Returns the event count, or ``None`` after a one-line error (nothing
    is held beyond the current line unless a reducer keeps it).
    """
    count = 0
    try:
        for event in iter_jsonl(path):
            count += 1
            for reducer in reducers:
                reducer(event)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        print(f"error: cannot read trace '{path}': {reason}",
              file=sys.stderr)
        return None
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if not count:
        print(f"error: trace '{path}' contains no events", file=sys.stderr)
        return None
    return count


def _run_scenario(scenario_id, seed):
    """Run a registered scenario under a :class:`TraceRecorder`.

    Returns ``(sim, recorder)`` once the scenario hook returns, or
    ``None`` after a one-line error for an unknown id.
    """
    from repro.experiments.registry import get_scenario
    from repro.sim.core import Simulator

    try:
        scenario = get_scenario(scenario_id)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return None
    recorder = TraceRecorder()
    sim = Simulator(seed=seed, recorder=recorder)
    scenario(sim)
    return sim, recorder


def summarize(path, top=None):
    if top is not None and top < 0:
        return _usage_error(f"--top must be >= 0, got {top}")
    breakdown = LatencyBreakdown()
    counts = {}

    def count_topics(ev):
        counts[ev.topic] = counts.get(ev.topic, 0) + 1

    total = _stream_into(path, (count_topics, breakdown.observe))
    if total is None:
        return 1
    print(breakdown.render())
    shown = sorted(counts)
    suffix = ""
    if top is not None and top < len(shown):
        shown = sorted(counts, key=lambda t: (-counts[t], t))[:top]
        suffix = f" (top {top} by count)"
    print()
    print(f"{total} events across {len(counts)} topics{suffix}:")
    for topic in shown:
        print(f"  {topic:22s} {counts[topic]}")
    return 0


def accuracy(scenario_id="fig3-accuracy", seed=7, snapshot=None,
             interval_us=100_000.0, trace=None):
    """Run a scenario under a recorder; grade its predictions and fold
    its metrics after the run.

    With ``trace`` set, grade an exported JSONL trace instead — streamed
    through :func:`iter_jsonl`, so megasweep-scale exports never need a
    full in-memory load.
    """
    from repro.obs.accuracy import AccuracyJoiner
    from repro.obs.registry import MetricsRegistry

    if not interval_us > 0:
        return _usage_error(
            f"--interval-us must be positive, got {interval_us:g}")
    if trace is not None:
        joiner = AccuracyJoiner()
        if _stream_into(trace, (joiner.observe,)) is None:
            return 1
        joiner.finalize()
        print(f"prediction accuracy: trace={trace} (streamed)")
        print()
        print(joiner.render())
        return 0
    run = _run_scenario(scenario_id, seed)
    if run is None:
        return 2
    sim, recorder = run
    joiner = AccuracyJoiner.from_events(recorder.events)
    registry = MetricsRegistry(sample_interval_us=interval_us).consume(
        recorder.events, until_us=sim.now)
    print(f"prediction accuracy: scenario={scenario_id} seed={seed}")
    print()
    print(joiner.render())
    print()
    print(f"registry: {registry.summary_line()}")
    if snapshot:
        with open(snapshot, "w") as fh:
            fh.write(registry.to_json())
            fh.write("\n")
        print(f"[metrics snapshot -> {snapshot}]")
    return 0


def _forensics_of(path):
    """A finalized :class:`TailForensics` streamed off a JSONL trace, or
    ``None`` after a one-line error."""
    from repro.obs.forensics import TailForensics

    forensics = TailForensics()
    if _stream_into(path, (forensics.observe,)) is None:
        return None
    return forensics.finalize()


def tails(trace=None, scenario_id=None, seed=7, threshold_us=None,
          pct=None, against=None, as_json=False, top=3):
    """Tail forensics: per-request blame attribution of one trace (or a
    live scenario run), optionally diffed ``--against`` a second trace."""
    from repro.obs.forensics import TailForensics, diff_reports

    if (trace is None) == (scenario_id is None):
        return _usage_error("give exactly one of TRACE or --scenario")
    if pct is not None and not 0 <= pct <= 100:
        return _usage_error(
            f"--percentile must be within [0, 100], got {pct:g}")
    if top < 0:
        return _usage_error(f"--top must be >= 0, got {top}")
    if scenario_id is not None:
        run = _run_scenario(scenario_id, seed)
        if run is None:
            return 2
        _, recorder = run
        forensics = TailForensics.from_events(recorder.events)
        label = f"scenario={scenario_id} seed={seed}"
    else:
        forensics = _forensics_of(trace)
        if forensics is None:
            return 1
        label = trace
    report = forensics.report(threshold_us=threshold_us, pct=pct,
                              label=label)
    if against is None:
        if as_json:
            sys.stdout.write(report.to_json())
        else:
            print(report.render(top=top))
        return 0
    other = _forensics_of(against)
    if other is None:
        return 1
    # Each run is thresholded against its *own* distribution (same
    # percentile, or the same absolute cut), so the diff explains how
    # the tail's composition moved, not just how the cut moved.
    report_b = other.report(threshold_us=threshold_us, pct=pct,
                            label=against)
    blame_diff = diff_reports(report, report_b, label_a=label,
                              label_b=against)
    if as_json:
        import json
        print(json.dumps(blame_diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(blame_diff.render())
    return 0


def schema_reference(markdown=False):
    """Render the auto-generated topic schema table."""
    from repro.obs.schema import SCHEMAS, render_markdown

    if markdown:
        print(render_markdown())
        return 0
    for topic, declared in SCHEMAS.items():
        print(f"{topic:22s} {declared.doc}")
    return 0


def diff(path_a, path_b, canonical=False):
    """Diff two JSONL traces; exit 0 only when they agree."""
    from repro.obs.diff import diff_traces

    events_a, events_b = [], []
    if _stream_into(path_a, (events_a.append,)) is None or \
            _stream_into(path_b, (events_b.append,)) is None:
        return 1
    report = diff_traces(events_a, events_b, label_a=path_a, label_b=path_b,
                         canonical=canonical)
    print(report.render())
    return 0 if report.identical else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability-plane tooling")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_sum = sub.add_parser("summarize",
                           help="per-stage breakdown of a JSONL trace")
    p_sum.add_argument("trace", help="path to a --trace JSONL export")
    p_sum.add_argument("--top", type=int, default=None, metavar="N",
                       help="show only the N most frequent topics")
    p_acc = sub.add_parser("accuracy",
                           help="prediction-accuracy observatory: error "
                                "CDFs + accept/reject confusion table")
    p_acc.add_argument("--scenario", default="fig3-accuracy",
                       help="scenario id (default: fig3-accuracy)")
    p_acc.add_argument("--seed", type=int, default=7)
    p_acc.add_argument("--snapshot", metavar="PATH", default=None,
                       help="also write the metrics-registry snapshot "
                            "as canonical JSON to PATH")
    p_acc.add_argument("--interval-us", type=float, default=100_000.0,
                       help="utilization/queue-depth sampling interval "
                            "(sim µs, default 100000)")
    p_acc.add_argument("--trace", metavar="PATH", default=None,
                       help="grade an exported JSONL trace (streamed) "
                            "instead of running a scenario")
    p_tails = sub.add_parser("tails",
                             help="tail forensics: per-request blame "
                                  "attribution + cross-run regression "
                                  "diff")
    p_tails.add_argument("trace", nargs="?", default=None,
                         help="JSONL trace export (.gz ok); or use "
                              "--scenario to run one live")
    p_tails.add_argument("--scenario", default=None,
                         help="run a registered scenario under a "
                              "recorder instead of reading a trace")
    p_tails.add_argument("--seed", type=int, default=7)
    group = p_tails.add_mutually_exclusive_group()
    group.add_argument("--threshold-us", type=float, default=None,
                       metavar="N",
                       help="flag spans slower than N µs (absolute)")
    group.add_argument("--percentile", type=float, default=None,
                       metavar="P",
                       help="flag spans above the trace's own P-th "
                            "percentile (default 99)")
    p_tails.add_argument("--against", metavar="TRACE", default=None,
                         help="second trace: report blame-class deltas "
                              "explaining the tail gap A -> B")
    p_tails.add_argument("--json", action="store_true",
                         help="emit the canonical JSON report instead "
                              "of the ascii tables")
    p_tails.add_argument("--top", type=int, default=3, metavar="K",
                         help="exemplar request timelines to print "
                              "(default 3)")
    p_schema = sub.add_parser("schema",
                              help="topic/payload reference from the "
                                   "schema registry")
    p_schema.add_argument("--markdown", action="store_true",
                          help="render the markdown table checked into "
                               "DESIGN.md §8")
    p_diff = sub.add_parser("diff",
                            help="first divergence between two traces")
    p_diff.add_argument("trace_a", help="baseline JSONL trace")
    p_diff.add_argument("trace_b", help="comparison JSONL trace")
    p_diff.add_argument("--canonical", action="store_true",
                        help="tie-insensitive comparison: drop volatile "
                             "identity counters (req/pid) first")
    args = parser.parse_args(argv)
    if args.cmd == "summarize":
        return summarize(args.trace, top=args.top)
    if args.cmd == "accuracy":
        return accuracy(scenario_id=args.scenario, seed=args.seed,
                        snapshot=args.snapshot,
                        interval_us=args.interval_us, trace=args.trace)
    if args.cmd == "tails":
        return tails(trace=args.trace, scenario_id=args.scenario,
                     seed=args.seed, threshold_us=args.threshold_us,
                     pct=args.percentile, against=args.against,
                     as_json=args.json, top=args.top)
    if args.cmd == "schema":
        return schema_reference(markdown=args.markdown)
    return diff(args.trace_a, args.trace_b, canonical=args.canonical)


if __name__ == "__main__":
    sys.exit(main())

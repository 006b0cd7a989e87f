"""CLI for the observability plane.

``python -m repro.obs summarize <trace.jsonl> [--top N]``
    Reduce an exported trace into the per-stage latency attribution table
    plus per-topic event counts (``--top`` bounds the topic table).

``python -m repro.obs accuracy [--scenario ID] [--seed N] [--snapshot P]``
    The prediction-accuracy observatory: run a scenario with a live
    metered recorder, join ``predictor.verdict`` against ``io.complete``,
    and print the per-device signed-error P50/P95/P99 table plus the 2x2
    accept/reject confusion table (the paper's Fig. 7 methodology).
    Output derives only from sim-clock events, so two same-seed runs are
    byte-identical — CI's ``accuracy-smoke`` gate.

``python -m repro.obs tails [TRACE | --scenario ID] [--threshold-us N |
--percentile P] [--against OTHER] [--json | --top K]``
    Tail forensics: for every span above the threshold (default: the
    trace's own p99), attribute its latency to blame classes
    (device-queueing, device-storm, network-loss-retry, failover-chain,
    shed-wait, predictor-miss, client-other) by joining fault windows,
    drops, sheds, failover decisions, and false-accept verdicts — with
    event-ref evidence per class.  ``--against`` diffs two runs' blame
    reports ("why did p99 regress"); traces are streamed, ``.gz`` works.

``python -m repro.obs schema [--markdown] [--check PATH]``
    The topic/payload reference, straight from ``repro.obs.schema``.
    ``--markdown`` renders the table checked into DESIGN.md §8;
    ``--check DESIGN.md`` exits 1 unless that file contains the current
    table verbatim (CI's docs drift gate).

``python -m repro.obs diff <a.jsonl> <b.jsonl> [--canonical]``
    Trace diff: first divergent timestamp group + per-topic count deltas
    between two traces of the same (seed, workload).  Exits 0 when the
    traces agree, 1 when they diverge or cannot be read.

``python -m repro.obs smoke [--validate]``
    CI determinism gate: run the fig3 replay scenario twice with the same
    seed under ``Simulator(paranoid=True)`` with a live recorder; the two
    trace digests AND the two sanitizer hashes must be identical.  With
    ``--validate`` every recorded event is additionally checked against
    the ``repro.obs.schema`` registry, so an emitter whose payload drifts
    from its declared contract fails the gate at runtime, not just under
    the static DET012 pass.

``python -m repro.obs perfguard``
    CI performance gate: the un-traced (NullRecorder) hot path must stay
    within 5% of the pre-bus code.  Estimated as (per-site guard cost x
    guard-site crossings) against the wall-clock of the chaos replay
    scenario, with a generous safety factor.  For where host time goes,
    layer by layer (exclusive self time), run
    ``python3 benchmarks/e2e/run.py --workload W --trace 1``.

``python -m repro.obs perfguard --trend [--speed BENCH_speed.json]``
    Kernel-throughput trend gate: rerun the ``benchmarks/kernel_bench``
    microbench suite, append the combined events/sec to the committed
    ``BENCH_speed.json`` per-PR history, and fail when the fresh rate
    falls below 75% of the committed ``floor_events_per_s`` — the CI
    regression gate for the kernel speed rewrite's perf trajectory.
"""

import argparse
import sys

from repro.metrics.breakdown import LatencyBreakdown
from repro.obs.bus import (TraceFormatError, TraceRecorder, iter_jsonl,
                           read_jsonl)


def _load_trace(path):
    """Events of a JSONL trace, or ``None`` after a one-line error."""
    try:
        events = read_jsonl(path)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        print(f"error: cannot read trace '{path}': {reason}",
              file=sys.stderr)
        return None
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if not events:
        print(f"error: trace '{path}' contains no events", file=sys.stderr)
        return None
    return events


def _stream_into(path, reducers):
    """Stream a JSONL trace into ``observe``-style reducers.

    Returns the event count, or ``None`` after a one-line error — the
    streaming twin of :func:`_load_trace` for megasweep-scale traces
    (nothing is held beyond the current line).
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


def summarize(path, top=None):
    breakdown = LatencyBreakdown()
    counts = {}

    def count_topics(ev):
        counts[ev.topic] = counts.get(ev.topic, 0) + 1

    def fold_spans(ev):
        from repro.obs.events import SPAN_OP, SPAN_REQUEST
        if ev.topic == SPAN_REQUEST:
            breakdown.add("request", ev.fields["total"], ev.fields["stages"])
        elif ev.topic == SPAN_OP:
            breakdown.add("op", ev.fields["total"], ev.fields["stages"])

    total = _stream_into(path, (count_topics, fold_spans))
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


def accuracy(scenario_id="fig3", seed=7, snapshot=None,
             interval_us=100_000.0, horizon_us=10_000_000.0, trace=None):
    """Run a scenario under a metered recorder; grade its predictions.

    With ``trace`` set, grade an exported JSONL trace instead — streamed
    through :func:`iter_jsonl`, so megasweep-scale exports never need a
    full in-memory load.
    """
    from repro.experiments.registry import get_accuracy_scenario
    from repro.obs.accuracy import AccuracyJoiner
    from repro.obs.registry import MeteredRecorder, MetricsRegistry
    from repro.sim.core import Simulator

    if trace is not None:
        joiner = AccuracyJoiner()
        if _stream_into(trace, (joiner.observe,)) is None:
            return 1
        joiner.finalize()
        print(f"prediction accuracy: trace={trace} (streamed)")
        print()
        print(joiner.render())
        return 0
    try:
        scenario = get_accuracy_scenario(scenario_id)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    registry = MetricsRegistry(sample_interval_us=interval_us)
    recorder = MeteredRecorder(registry)
    sim = Simulator(seed=seed, recorder=recorder)
    # Grid ticks past the scenario's own run limit never execute.
    registry.arm(sim, horizon_us)
    scenario(sim)
    joiner = AccuracyJoiner.from_events(recorder.events)
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
        print("error: give exactly one of TRACE or --scenario",
              file=sys.stderr)
        return 2
    if scenario_id is not None:
        from repro.experiments.registry import get_scenario
        from repro.sim.core import Simulator
        try:
            scenario = get_scenario(scenario_id)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        recorder = TraceRecorder()
        sim = Simulator(seed=seed, recorder=recorder)
        scenario(sim)
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


def schema_reference(markdown=False, check=None):
    """Render (or drift-check) the auto-generated topic schema table."""
    from repro.obs.schema import SCHEMAS, render_markdown

    table = render_markdown()
    if check is not None:
        try:
            with open(check) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read '{check}': "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 1
        if table not in text:
            print(f"schema drift: {check} does not contain the current "
                  "topic table verbatim — regenerate it with "
                  "'python -m repro.obs schema --markdown' and paste it "
                  "over the stale copy", file=sys.stderr)
            return 1
        print(f"schema reference in {check}: up to date "
              f"({len(SCHEMAS)} topics)")
        return 0
    if markdown:
        print(table)
        return 0
    for topic, declared in SCHEMAS.items():
        print(f"{topic:22s} {declared.doc}")
    return 0


def diff(path_a, path_b, canonical=False):
    """Diff two JSONL traces; exit 0 only when they agree."""
    from repro.obs.diff import diff_traces

    events_a = _load_trace(path_a)
    if events_a is None:
        return 1
    events_b = _load_trace(path_b)
    if events_b is None:
        return 1
    report = diff_traces(events_a, events_b, label_a=path_a, label_b=path_b,
                         canonical=canonical)
    print(report.render())
    return 0 if report.identical else 1


def _traced_fig3(seed, validate=False):
    """One traced, paranoid fig3 replay: (trace_digest, sanitizer hash)."""
    from repro.experiments.fig3 import replay_scenario
    from repro.sim.core import Simulator

    recorder = TraceRecorder(keep_events=False, validate=validate)
    sim = Simulator(seed=seed, paranoid=True, recorder=recorder)
    replay_scenario(sim)
    return recorder.trace_digest(), sim.trace_hash(), recorder.count


def smoke(seed=7, validate=False):
    """Same-seed traced runs must produce identical digests and hashes.

    With ``validate=True`` every recorded event is also checked against
    the ``repro.obs.schema`` registry as it is emitted, so a payload
    that drifts from its declared contract fails the gate loudly.
    """
    from repro.obs.schema import SchemaViolation

    try:
        digest_a, hash_a, count_a = _traced_fig3(seed, validate=validate)
        digest_b, hash_b, count_b = _traced_fig3(seed, validate=validate)
    except SchemaViolation as exc:
        print(f"schema violation: {exc}", file=sys.stderr)
        print("trace determinism: SCHEMA MISMATCH")
        return 1
    ok = digest_a == digest_b and hash_a == hash_b
    print(f"run A: {count_a} events  digest {digest_a}  hash {hash_a}")
    print(f"run B: {count_b} events  digest {digest_b}  hash {hash_b}")
    if validate:
        print(f"schema validation: OK ({count_a + count_b} events checked)")
    print("trace determinism: " + ("OK" if ok else "MISMATCH"))
    return 0 if ok else 1


def perfguard(budget_pct=5.0):
    """Bound the NullRecorder overhead of the bus refactor.

    Every emit site the refactor added costs one attribute load plus one
    truth test (``if bus.recorder.active:``) on the un-traced path.  We
    microbench that guard, count how many times the chaos scenario
    crosses such a site (recorded events of a traced run, doubled to
    cover sites that check but record nothing), and demand the product
    stays under ``budget_pct`` of the scenario's un-traced wall-clock.
    """
    import time

    from repro.experiments.faultsweep import replay_scenario
    from repro.sim.core import Simulator

    # Un-traced scenario wall-clock (best of 3 to shed scheduler noise).
    runtimes = []
    for i in range(3):
        sim = Simulator(seed=7)
        start = time.perf_counter()  # repro: allow[DET002] host benchmark
        replay_scenario(sim)
        runtimes.append(time.perf_counter() - start)  # repro: allow[DET002]
    base_s = min(runtimes)

    # How many guard sites does the scenario cross?  A traced run records
    # one event per active site; double it for check-only crossings.
    recorder = TraceRecorder(keep_events=False)
    sim = Simulator(seed=7, recorder=recorder)
    replay_scenario(sim)
    crossings = recorder.count * 2

    # Per-crossing guard cost: attribute load + truth test, measured hot.
    class _Bus:
        class recorder:
            active = False

    bus = _Bus()
    n = 1_000_000
    start = time.perf_counter()  # repro: allow[DET002] host benchmark
    for _ in range(n):
        if bus.recorder.active:
            pass
    guard_s = (time.perf_counter() - start) / n  # repro: allow[DET002]

    overhead_s = guard_s * crossings
    pct = 100.0 * overhead_s / base_s
    print(f"scenario wall-clock: {base_s * 1e3:.1f} ms (best of 3)")
    print(f"guard crossings: {crossings} (traced events x2)")
    print(f"guard cost: {guard_s * 1e9:.1f} ns/crossing "
          f"-> {overhead_s * 1e6:.1f} us total")
    print(f"estimated NullRecorder overhead: {pct:.2f}% "
          f"(budget {budget_pct:.1f}%)")
    ok = pct < budget_pct
    print("perf guard: " + ("OK" if ok else "OVER BUDGET"))
    return 0 if ok else 1


def perfguard_trend(speed_path="BENCH_speed.json", reps=3, label=None):
    """Kernel microbench trend gate against the committed speed floor.

    Reruns the ``benchmarks/kernel_bench`` suite, appends the result to
    the committed per-PR history, and fails below 75% of the committed
    ``floor_events_per_s``.  The floor itself carries a 4x hardware
    cushion (see :mod:`repro.obs.kernelbench`), so this catches
    order-of-magnitude hot-path regressions across heterogeneous CI
    runners, not single-digit machine drift.
    """
    from repro.obs import kernelbench

    result = kernelbench.run_suite(reps=reps)
    label = label or kernelbench.git_label()
    doc = kernelbench.load_speed(speed_path)
    if doc is None:
        # First run on this checkout: seed the trajectory and pass.
        doc = kernelbench.update_speed(None, result, label)
        doc["floor_events_per_s"] = round(
            kernelbench.FLOOR_FRACTION * result["combined_events_per_s"], 1)
        kernelbench.write_speed(speed_path, doc)
        print(f"trend gate: no committed {speed_path} — trajectory seeded, "
              "commit it to arm the gate")
        print(kernelbench.render(result, doc))
        return 0
    doc = kernelbench.update_speed(doc, result, label)
    kernelbench.write_speed(speed_path, doc)
    rate = result["combined_events_per_s"]
    floor = doc.get("floor_events_per_s", 0.0)
    gate = kernelbench.TREND_GATE_FRACTION * floor
    print(f"kernel bench trend: label={label}")
    print(kernelbench.render(result, doc))
    print(f"committed floor: {floor:,.0f} ev/s -> gate at {gate:,.0f} ev/s")
    if floor and rate < gate:
        print(f"trend gate: {rate:,.0f} ev/s below "
              f"{kernelbench.TREND_GATE_FRACTION:.0%} of the committed "
              "floor — FAIL", file=sys.stderr)
        return 1
    print("trend gate: OK")
    return 0


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
    p_acc.add_argument("--scenario", default="fig3",
                       help="scenario id (default: fig3)")
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
    p_schema.add_argument("--check", metavar="PATH", default=None,
                          help="exit 1 unless PATH contains the current "
                               "table verbatim (CI drift gate)")
    p_diff = sub.add_parser("diff",
                            help="first divergence between two traces")
    p_diff.add_argument("trace_a", help="baseline JSONL trace")
    p_diff.add_argument("trace_b", help="comparison JSONL trace")
    p_diff.add_argument("--canonical", action="store_true",
                        help="tie-insensitive comparison: drop volatile "
                             "identity counters (req/pid) first")
    p_smoke = sub.add_parser("smoke",
                             help="same-seed trace determinism gate")
    p_smoke.add_argument("--seed", type=int, default=7)
    p_smoke.add_argument("--validate", action="store_true",
                         help="also check every recorded event against "
                              "the repro.obs.schema registry")
    p_perf = sub.add_parser("perfguard",
                            help="NullRecorder overhead budget gate")
    p_perf.add_argument("--budget", type=float, default=5.0,
                        help="overhead budget in percent")
    p_perf.add_argument("--trend", action="store_true",
                        help="kernel microbench trend mode: rerun "
                             "benchmarks/kernel_bench, append to the "
                             "committed history, fail below 75%% of the "
                             "committed floor")
    p_perf.add_argument("--speed", metavar="PATH", default="BENCH_speed.json",
                        help="committed BENCH_speed.json for --trend "
                             "(default BENCH_speed.json)")
    p_perf.add_argument("--reps", type=int, default=3,
                        help="timed repetitions per microbench in --trend "
                             "mode (default 3)")
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
        return schema_reference(markdown=args.markdown, check=args.check)
    if args.cmd == "diff":
        return diff(args.trace_a, args.trace_b, canonical=args.canonical)
    if args.cmd == "smoke":
        return smoke(seed=args.seed, validate=args.validate)
    if args.trend:
        return perfguard_trend(speed_path=args.speed, reps=args.reps)
    return perfguard(budget_pct=args.budget)


if __name__ == "__main__":
    sys.exit(main())

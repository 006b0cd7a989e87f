"""CLI: ``python -m repro.experiments <id|list|all> [--full] [--seed N]
[--plot] [--json PATH] [--trace [PATH]] [--metrics [PATH]] [--tails]
[--paranoid] [--faults PATH]``."""

import argparse
import inspect
import sys
import time

from repro.experiments.registry import EXPERIMENTS, get_experiment


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run MittOS reproduction experiments")
    parser.add_argument("experiment",
                        help="experiment id, 'list', or 'all'")
    parser.add_argument("--full", action="store_true",
                        help="full-size run (slower, tighter percentiles)")
    parser.add_argument("--plot", action="store_true",
                        help="also render ASCII CDF plots where available")
    parser.add_argument("--json", metavar="PATH",
                        help="append results as JSON lines to PATH")
    parser.add_argument("--trace", nargs="?", const="", metavar="PATH",
                        help="record the observability-plane trace: print "
                             "the per-stage latency breakdown and export "
                             "JSONL to PATH (default <id>-trace.jsonl)")
    parser.add_argument("--metrics", nargs="?", const="", metavar="PATH",
                        help="fold the trace into a metrics-registry "
                             "snapshot (counters, gauges, histograms) "
                             "written as canonical JSON to PATH (default "
                             "<id>-metrics.json)")
    parser.add_argument("--tails", action="store_true",
                        help="post-hoc tail forensics over the recorded "
                             "trace: per-request blame attribution of "
                             "every span above the run's own p99")
    parser.add_argument("--paranoid", action="store_true",
                        help="run simulators with the replay sanitizer "
                             "armed (trace events feed its hash)")
    parser.add_argument("--faults", metavar="PATH",
                        help="drive the run from a committed FaultSpec "
                             "JSON file (experiments that take a 'faults' "
                             "parameter, e.g. slosweep)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for exp_id, (_, title) in EXPERIMENTS.items():
            print(f"{exp_id:10s} {title}")
        return 0

    faults = None
    if args.faults:
        from repro.faults import FaultSpec
        faults = FaultSpec.load(args.faults)

    ids = list(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for exp_id in ids:
        runner = get_experiment(exp_id)
        if faults is not None:
            if "faults" not in inspect.signature(runner).parameters:
                parser.error(f"experiment '{exp_id}' does not take --faults")
            runner = _with_faults(runner, faults)
        # repro: allow[DET002] host time only reports CLI runtime; it
        # never enters the simulation.
        start = time.time()
        trace_report = None
        if args.trace is not None or args.metrics is not None \
                or args.tails or args.paranoid:
            result, trace_report = _run_traced(runner, exp_id, args)
        else:
            result = runner(quick=not args.full, seed=args.seed)
        print(result.render())
        if trace_report:
            print()
            print(trace_report)
        if args.plot and result.plots:
            print()
            print(result.render_plots())
        if args.json:
            import json
            with open(args.json, "a") as fh:
                fh.write(json.dumps(result.to_dict()) + "\n")
        elapsed = time.time() - start  # repro: allow[DET002] CLI timing
        print(f"\n[{exp_id} took {elapsed:.1f}s]\n")
    return 0


def _with_faults(runner, faults):
    """Bind a loaded FaultSpec onto a runner that accepts one."""
    def bound(quick=True, seed=7):
        return runner(quick=quick, seed=seed, faults=faults)
    return bound


def _run_traced(runner, exp_id, args):
    """Run one experiment with ambient tracing installed.

    Returns ``(result, trace_report)``: the per-stage latency attribution
    table plus the JSONL export location when ``--trace`` was given, the
    metrics-snapshot summary when ``--metrics`` was, both when both
    (None when only ``--paranoid`` was requested).
    """
    from repro.obs.bus import TraceRecorder, install_tracing, reset_tracing

    want_events = args.trace is not None or args.metrics is not None \
        or args.tails
    recorder = TraceRecorder() if want_events else None
    install_tracing(recorder, paranoid=args.paranoid)
    try:
        result = runner(quick=not args.full, seed=args.seed)
    finally:
        reset_tracing()
    if recorder is None:
        return result, None
    parts = []
    if args.trace is not None:
        from repro.metrics.breakdown import LatencyBreakdown
        path = args.trace or f"{exp_id}-trace.jsonl"
        n = recorder.write_jsonl(path)
        parts.append(LatencyBreakdown.from_events(recorder.events).render()
                     + f"\n[trace: {n} events -> {path}  "
                       f"digest {recorder.trace_digest()}]")
    if args.metrics is not None:
        # Post-hoc fold, counters only: experiments run one simulator per
        # strategy line, so clocks restart and a shared sampling grid
        # would be meaningless — time series are the accuracy CLI's job.
        from repro.obs.registry import MetricsRegistry
        registry = MetricsRegistry().consume(recorder.events)
        path = args.metrics or f"{exp_id}-metrics.json"
        with open(path, "w") as fh:
            fh.write(registry.to_json())
            fh.write("\n")
        parts.append(f"[metrics: {registry.summary_line()} -> {path}]")
    if args.tails:
        # Post-hoc too: the forensics engine only reads the recorded
        # events, so --tails adds zero work inside the simulation.
        from repro.obs.forensics import TailForensics
        report = TailForensics.from_events(recorder.events).report(
            label=f"{exp_id} seed={args.seed}")
        parts.append(report.render())
    return result, "\n".join(parts)


if __name__ == "__main__":
    sys.exit(main())

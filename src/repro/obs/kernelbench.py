"""Kernel hot-loop microbenchmarks — the committed perf trajectory.

# repro: allow-file[DET002] timing the host kernel loop is this module's
# entire purpose; nothing measured here feeds back into a simulation.

``python3 benchmarks/e2e/run.py --trace 1`` answers *where* host
wall-clock goes in a real workload; this module answers *how fast the
kernel itself is*, isolated from scenario setup, device models and RNG
draws.  Three
synthetic workloads stress exactly the paths the speed rewrite fused:

``timeout-storm``
    P processes x K plain-number sleeps each — the fused timer fast
    path (``schedule`` -> ``_timer_fire`` -> ``_step``), no Event, no
    callback list, no ``_resume`` hop per sleep.
``event-fanin``
    R rounds of ``AllOf`` over M timer children — combinator dispatch
    with the shared bound-method callback (one allocation per round,
    not per child).
``closed-loop-churn``
    C chains of D nested processes, each yielding its child — Process
    construction cost plus the synchronous completion cascade
    (``succeed`` -> ``_run_callbacks`` -> ``_resume`` -> ``_step``).

Each bench knows its executed-kernel-event count *analytically* from
its parameters (the schedule structure is deterministic), times ``reps``
fresh runs, and reports events/sec at the best (least-interfered)
wall-clock.  ``run_suite`` returns the ``BENCH_speed.json`` payload
core::

    {
      "benches": {name: {"events": N, "best_s": s, "events_per_s": r}},
      "combined_events_per_s": total events / total best seconds,
    }

The committed file adds two fields maintained by
``benchmarks/kernel_bench.py`` and ``python -m repro.obs perfguard
--trend``:

``floor_events_per_s``
    The committed throughput floor.  Set (``--commit-floor``) to 1/4 of
    the measured combined rate — the same 4x hardware cushion the
    profile throughput floor uses — because CI runners are slower and
    noisier than maintainer machines.  The trend gate fails below 75%
    of this floor, so it catches order-of-magnitude hot-path
    regressions, not single-digit drift.
``history``
    Per-PR trajectory: one ``{"label", "combined_events_per_s",
    "benches"}`` entry per recorded run (label = git short hash when
    available), most recent last, bounded to the last 50.
"""

import json
import time

from repro.sim.core import Simulator
from repro.sim.events import AllOf

#: History entries kept in ``BENCH_speed.json`` (most recent last).
HISTORY_LIMIT = 50

#: The committed floor is this fraction of the measured combined rate
#: (4x hardware cushion, like the profile throughput floor).
FLOOR_FRACTION = 0.25

#: ``perfguard --trend`` fails below this fraction of the committed floor.
TREND_GATE_FRACTION = 0.75


# -- the three microbenches -------------------------------------------------

def _sleeper(sleeps, delay_us):
    for _ in range(sleeps):
        yield delay_us
    return sleeps


def bench_timeout_storm(procs=200, sleeps=50, reps=5):
    """Fused plain-delay sleeps: P processes x K timer fires each."""
    # Kernel events: one initial _step per process + one timer fire per
    # sleep.  Delays are staggered per process so the heap sees realistic
    # interleaving rather than one giant tie group.
    events = procs * (1 + sleeps)

    def run_once():
        sim = Simulator(seed=11)
        for i in range(procs):
            sim.process(_sleeper(sleeps, 10.0 + (i % 7)))
        sim.run()

    return _measure("timeout-storm", events, run_once, reps)


def _fan(sim, rounds, width):
    for _ in range(rounds):
        yield AllOf(sim, [sim.timeout(5.0 + i) for i in range(width)])
    return rounds


def bench_event_fanin(rounds=100, width=40, reps=5):
    """AllOf over timer children: combinator callback dispatch."""
    # Kernel events: one initial _step + width timer fires per round
    # (the AllOf resolution itself is a synchronous cascade, unobserved
    # by the heap).
    events = 1 + rounds * width

    def run_once():
        sim = Simulator(seed=12)
        sim.process(_fan(sim, rounds, width))
        sim.run()

    return _measure("event-fanin", events, run_once, reps)


def _chain(sim, depth):
    if depth:
        yield sim.process(_chain(sim, depth - 1))
    return depth


def bench_closed_loop_churn(chains=150, depth=30, reps=5):
    """Nested process spawn/complete chains: constructor + resume cost."""
    # Kernel events: one scheduled initial _step per process; completion
    # cascades are synchronous.  Each chain is depth+1 processes.
    events = chains * (depth + 1)

    def run_once():
        sim = Simulator(seed=13)
        for _ in range(chains):
            sim.process(_chain(sim, depth))
        sim.run()

    return _measure("closed-loop-churn", events, run_once, reps)


def _measure(name, events, run_once, reps):
    run_once()  # warm-up: bytecode caches, allocator pools
    perf = time.perf_counter
    best = None
    for _ in range(max(1, reps)):
        start = perf()
        run_once()
        elapsed = perf() - start
        if best is None or elapsed < best:
            best = elapsed
    return {"name": name, "events": events, "best_s": best,
            "events_per_s": events / best}


def run_suite(reps=5):
    """Run all three benches; return the BENCH_speed payload core."""
    benches = [bench_timeout_storm(reps=reps),
               bench_event_fanin(reps=reps),
               bench_closed_loop_churn(reps=reps)]
    total_events = sum(b["events"] for b in benches)
    total_s = sum(b["best_s"] for b in benches)
    return {
        "benches": {b["name"]: {"events": b["events"],
                                "best_s": round(b["best_s"], 6),
                                "events_per_s": round(b["events_per_s"], 1)}
                    for b in benches},
        "combined_events_per_s": round(total_events / total_s, 1),
    }


# -- BENCH_speed.json maintenance -------------------------------------------

def git_label(default="local"):
    """Short commit hash of HEAD, or ``default`` outside a git checkout."""
    import subprocess
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return default
    label = proc.stdout.strip()
    return label if proc.returncode == 0 and label else default


def load_speed(path):
    """The committed BENCH_speed document, or ``None`` if unreadable."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def update_speed(doc, result, label):
    """Fold a fresh ``run_suite`` result into the speed document."""
    doc = dict(doc or {})
    doc["benches"] = result["benches"]
    doc["combined_events_per_s"] = result["combined_events_per_s"]
    entry = {"label": label,
             "combined_events_per_s": result["combined_events_per_s"],
             "benches": {name: bench["events_per_s"]
                         for name, bench in result["benches"].items()}}
    history = [e for e in doc.get("history", ())
               if e.get("label") != label]
    history.append(entry)
    doc["history"] = history[-HISTORY_LIMIT:]
    return doc


def write_speed(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render(result, doc=None):
    lines = []
    for name, bench in result["benches"].items():
        lines.append(f"  {name:18s} {bench['events']:>7d} events  "
                     f"{bench['best_s'] * 1e3:8.2f} ms best  "
                     f"{bench['events_per_s']:>12,.0f} ev/s")
    lines.append(f"  {'combined':18s} "
                 f"{result['combined_events_per_s']:>41,.0f} ev/s")
    if doc and doc.get("history"):
        lines.append("  trend (last 5):")
        for entry in doc["history"][-5:]:
            lines.append(f"    {entry.get('label', '?'):12s} "
                         f"{entry.get('combined_events_per_s', 0):>12,.0f}"
                         " ev/s")
    return "\n".join(lines)


def main(argv=None):
    """CLI body of ``benchmarks/kernel_bench.py``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="kernel_bench.py",
        description="Kernel hot-loop microbenchmarks -> BENCH_speed.json")
    parser.add_argument("--out", default="BENCH_speed.json", metavar="PATH",
                        help="speed document to update (default "
                             "BENCH_speed.json)")
    parser.add_argument("--reps", type=int, default=5,
                        help="timed repetitions per bench (default 5)")
    parser.add_argument("--label", default=None,
                        help="history label (default: git short hash)")
    parser.add_argument("--commit-floor", action="store_true",
                        help="also set floor_events_per_s to "
                             f"{FLOOR_FRACTION:.2f}x the measured combined "
                             "rate (do this when intentionally re-basing "
                             "the committed floor)")
    args = parser.parse_args(argv)

    result = run_suite(reps=args.reps)
    label = args.label or git_label()
    doc = update_speed(load_speed(args.out), result, label)
    if args.commit_floor or "floor_events_per_s" not in doc:
        doc["floor_events_per_s"] = round(
            FLOOR_FRACTION * result["combined_events_per_s"], 1)
    write_speed(args.out, doc)
    print(f"kernel bench: label={label} reps={args.reps}")
    print(render(result, doc))
    print(f"floor: {doc['floor_events_per_s']:,.0f} ev/s "
          f"(trend gate at {TREND_GATE_FRACTION:.0%})")
    print(f"[speed -> {args.out}]")
    return 0

"""End-to-end benchmark of the MittOS reproduction.

    python3 benchmarks/e2e/run.py --workload NAME [--seed N] [--seconds S]
                                  [--trace 0|1]

Run from the repository root; the simulator is imported from ``src/``.
Each pass runs one workload in a fresh child process (``child.py``), one
at a time.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted`` counts passes and ``failed`` the passes that crashed
or failed a check.  The line before it gives each pass and the run-level
checks.  The command exits non-zero unless every check passed.

Untraced (``--trace 0``), a run first simulates ``SUBSEEDS`` seeds derived
from ``--seed``, one pass each.  The simulated metrics and the paper claim
of ``workloads.CLAIMS`` are taken over these passes, so they do not depend
on host speed.  Passes then repeat those seeds in turn while ``--seconds``
allow, and each repeat must reproduce its seed's results exactly.  Host
metrics are taken over every pass.

Traced (``--trace 1``), a run makes one untraced and one cProfile'd pass
at ``--seed`` and reports the per-layer metrics of ``layers.py``.  Both
passes must simulate the same thing, and the layer buckets must cover at
least ``MIN_TRACE_COVERAGE`` of the profiled run phase.

See README.md for the workloads and what each metric means.
"""

import argparse
import compileall
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Simulated seeds per untraced run: pass k simulates seed + k * SEED_STRIDE.
SUBSEEDS = 5
SEED_STRIDE = 1_000_000

#: A pass takes about 3 s on a 2-core 2.1 GHz Xeon; a hung child is killed
#: long before the run's own time limit.
CHILD_TIMEOUT_S = 120

#: The simulator runs in one thread.  Without these, importing numpy
#: starts an idle BLAS thread pool, about 50 ms of every pass's set-up.
CHILD_ENV = {"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MIN_TRACE_COVERAGE = 0.95

#: End-to-end metrics: name -> unit.
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "ok_op_frac": "fraction",
}


class PassFailed(Exception):
    """A child process exited non-zero or printed no result."""


def run_pass(workload, seed, trace):
    """Run one child; returns its JSON result plus its host wall time."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed),
         "1" if trace else "0"],
        cwd=ROOT, env={**os.environ, **CHILD_ENV},
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["pass_s"] = perf_counter() - start
    return result


def untraced(workload, seed, seconds):
    """Returns (passes, failures, metrics, run-level checks)."""
    import workloads  # needs SRC on sys.path, which main() ensures

    start = perf_counter()
    firsts, failures = [], []
    for k in range(SUBSEEDS):
        try:
            firsts.append(run_pass(workload, seed + k * SEED_STRIDE, False))
        except PassFailed as exc:
            failures.append(str(exc))
    if not firsts:
        return [], failures, {}, {}
    passes = list(firsts)
    pass_s = statistics.median(p["pass_s"] for p in firsts)
    for first in itertools.cycle(firsts):
        if perf_counter() - start + pass_s > seconds:
            break
        try:
            again = run_pass(workload, first["seed"], False)
        except PassFailed as exc:
            failures.append(str(exc))
            break
        again["checks"]["replays_identically"] = (
            again["sim"]["sim_digest"] == first["sim"]["sim_digest"])
        passes.append(again)

    key, test, limit = workloads.CLAIMS[workload]
    values = [p["sim"][key] for p in firsts if key in p["sim"]]
    claim = f"median {key} {test.__name__} {limit}"
    checks = {claim: bool(values)
              and test(statistics.median(values), limit)}
    return passes, failures, e2e_metrics(firsts, passes), checks


def e2e_metrics(firsts, passes):
    """End-to-end metrics: simulated ones over ``firsts`` (one pass per
    simulated seed), host ones over every pass."""

    def sim_median(key):
        return statistics.median(p["sim"][key] for p in firsts)

    attempted = sum(p["sim"]["attempted_ops"] for p in firsts)
    failed_ops = sum(p["sim"]["failed_ops"] for p in firsts)
    metrics = {
        # Other work on the host only ever slows a pass down, so the run
        # reports its fastest pass.
        "wall_s": min(p["run_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "sim_p50_ms": sim_median("sim_p50_ms"),
        "sim_p99_ms": sim_median("sim_p99_ms"),
        "ok_op_frac": (attempted - failed_ops) / attempted,
    }
    return {name: {"value": value, "unit": E2E_UNITS[name]}
            for name, value in metrics.items()}


def traced(workload, seed):
    """Returns (passes, failures, metrics, run-level checks)."""
    import layers  # needs SRC on sys.path, which main() ensures

    try:
        plain = run_pass(workload, seed, False)
        profiled = run_pass(workload, seed, True)
    except PassFailed as exc:
        return [], [str(exc)], {}, {}
    profiled["checks"]["replays_identically"] = (
        profiled["sim"]["sim_digest"] == plain["sim"]["sim_digest"])
    metrics = layers.layer_metrics(profiled.pop("layers"),
                                   profiled["run_s"], plain["run_s"])
    checks = {"trace_covers_run": (metrics["trace.coverage"]["value"]
                                   >= MIN_TRACE_COVERAGE)}
    return [plain, profiled], [], metrics, checks


def summary(workload, passes, checks):
    """The informational line: the run-level checks, one digest over every
    simulated seed, the paper's MittOS-over-Hedged tail ratios where both
    lines ran, and each pass."""
    sims = {p["seed"]: p["sim"] for p in passes}
    digests = {seed: sim["sim_digest"] for seed, sim in sims.items()}
    out = {"workload": workload, "checks": checks,
           "sim_digest": hashlib.sha256(
               json.dumps(digests, sort_keys=True).encode()).hexdigest()}
    for key in ("mitt_over_hedged_p95", "mitt_over_hedged_p99"):
        values = [sim[key] for sim in sims.values() if key in sim]
        if values:
            out[key] = statistics.median(values)
    out["passes"] = passes
    return out


def main(argv=None):
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Byte-compile once up front so no pass pays for it in its set-up time.
    compileall.compile_dir(SRC / "repro", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    if args.trace:
        passes, failures, metrics, checks = traced(args.workload, args.seed)
    else:
        passes, failures, metrics, checks = untraced(
            args.workload, args.seed, args.seconds)
    for failure in failures:
        print(failure, file=sys.stderr)
    if not passes:
        return 1
    bad = [p for p in passes if not all(p["checks"].values())]
    print(json.dumps(summary(args.workload, passes, checks)))
    correct = not failures and not bad and all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": len(passes) + len(failures),
        "failed": len(bad) + len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

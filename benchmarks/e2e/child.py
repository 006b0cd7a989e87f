"""One benchmark pass in a fresh process.

    PYTHONPATH=src python3 benchmarks/e2e/child.py WORKLOAD SEED TRACE

Runs one workload at one simulator seed and prints one JSON object: host
run-phase and set-up seconds, peak RSS, the simulated results, the output
checks and, with TRACE=1, the cProfile rollup of the run phase.  ``run.py``
starts one of these per pass; a fresh process makes every pass pay the
imports and the one-time disk profile again, which is what set-up time
measures.
"""

from time import perf_counter

# Taken before any other import: imports are set-up time.
_START = perf_counter()

import cProfile
import json
import resource
import sys

import layers
import workloads
from repro._units import KB, MB


def measure(name, seed, trace, **sizes):
    """One pass of workload ``name``; ``sizes`` override its defaults."""
    profiler = cProfile.Profile() if trace else None
    phases = workloads.Phases(profiler)
    lines = workloads.WORKLOADS[name](seed, phases, **sizes)
    setup_s = perf_counter() - _START - phases.run_s
    out = {
        "seed": seed,
        "run_s": phases.run_s,
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * KB / MB,
        "sim": workloads.sim_results(lines),
        "checks": {"ops_accounted": workloads.ops_accounted(lines)},
    }
    if profiler is not None:
        out["layers"] = layers.rollup(profiler)
    return out


if __name__ == "__main__":
    print(json.dumps(measure(sys.argv[1], int(sys.argv[2]),
                             sys.argv[3] == "1")))

#!/usr/bin/env python
"""Kernel hot-loop microbench suite -> ``BENCH_speed.json``.

Thin CLI over :mod:`repro.obs.kernelbench` (kept importable from the
package so ``python -m repro.obs perfguard`` can rerun the same
benches).  Three synthetic workloads isolate the kernel paths the speed
rewrite fused — the timeout storm (fused plain-delay sleeps), event
fan-in (AllOf combinator dispatch) and closed-loop churn (process
spawn/resume cascades) — and the combined events/sec lands in the
committed ``BENCH_speed.json`` trajectory.

Usage::

    PYTHONPATH=src python benchmarks/kernel_bench.py \
        [--out BENCH_speed.json] [--reps N] [--label L] [--commit-floor]

``--commit-floor`` re-bases the committed throughput floor (1/4 of the
measured combined rate); the CI ``kernel-bench`` job then fails any PR
measuring below 75% of that floor via ``obs perfguard``.
"""

import sys

from repro.obs.kernelbench import main

if __name__ == "__main__":
    sys.exit(main())

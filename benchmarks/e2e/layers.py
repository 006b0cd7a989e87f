"""Roll a cProfile of the run phase up into per-layer metrics.

Self time (cProfile's ``tottime``, exclusive of callees) is summed by the
repo package of each function's source file.  cProfile is used rather than
wrapping layer entry points because strategy, node, engine and ``OS.read``
work runs later, inside generator resumes driven by ``sim/process.py``: a
wrapper would file that work under the process layer, while cProfile
charges every call and every resume to the function that runs it.

Built-in functions (``len``, ``isinstance``, a generator's ``send``) are
charged to the layer that called them, except those of ``heapq`` and
``random``, which have buckets of their own.  Whatever no layer claims
goes to ``other``, so the buckets always sum to the profile's total self
time.
"""

import pstats
from functools import lru_cache
from pathlib import Path

import repro
from repro._units import SEC

_REPRO_DIR = Path(repro.__file__).resolve().parent

#: Self-time buckets, first match wins: (metric prefix, repro-relative path
#: prefix).  Files of ``sim/`` other than process.py and events.py (the run
#: loop, resources, sanitizer) count as the kernel core.
_REPRO_BUCKETS = (
    ("sim.process", "sim/process.py"),
    ("sim.events", "sim/events.py"),
    ("sim.core", "sim/"),
    ("cluster.strategies", "cluster/strategies/"),
    ("cluster", "cluster/"),
    ("engines", "engines/"),
    ("kernel", "kernel/"),
    ("mittos", "mittos/"),
    ("devices", "devices/"),
    ("workloads", "workloads/"),
    ("faults", "faults/"),
    ("obs", "obs/"),
)

BUCKETS = tuple(name for name, _ in _REPRO_BUCKETS) + (
    "stdlib.heapq", "stdlib.random", "other")

#: Counted entry points: metric -> ((repro-relative file, function), ...).
#: cProfile counts a generator resume as a call, so only plain functions
#: are counted.
_COUNTED = {
    "sim.events": (("sim/core.py", "schedule"),
                   ("sim/core.py", "schedule_at")),
    "sim.processes": (("sim/process.py", "__init__"),),
    "cluster.node_gets": (("cluster/node.py", "get"),),
    "cluster.net_sends": (("cluster/network.py", "send"),),
    "kernel.reads": (("kernel/syscall.py", "read"),),
    "kernel.io_submits": (("kernel/scheduler.py", "submit"),),
    "kernel.ebusy": (("kernel/syscall.py", "_note_ebusy"),),
    "devices.submits": (("devices/disk.py", "submit"),
                        ("devices/ssd.py", "submit")),
}

#: Entry points counted only when called from outside their own package:
#: a stacked predictor (MittCache over MittCFQ) forwards ``admit`` to the
#: one below it, and a strategy's ``get`` may call its parent's.
_COUNTED_FROM_OUTSIDE = {
    "mittos.admits": ("mittos/", "admit"),
    "cluster.strategies.gets": ("cluster/strategies/", "get"),
}


@lru_cache(maxsize=None)
def _relpath(filename):
    """Path of a source file relative to the repro package, or None."""
    if filename == "~":  # cProfile's file for built-in functions
        return None
    try:
        return Path(filename).resolve().relative_to(_REPRO_DIR).as_posix()
    except ValueError:
        return None


def bucket_of(filename, funcname):
    """The self-time bucket of one profiled function, or None for a
    built-in whose time belongs to its callers."""
    rel = _relpath(filename)
    if rel is not None:
        for name, prefix in _REPRO_BUCKETS:
            if rel.startswith(prefix):
                return name
        return "other"
    if "_heapq" in funcname or Path(filename).name == "heapq.py":
        return "stdlib.heapq"
    if "_random" in funcname or Path(filename).name == "random.py":
        return "stdlib.random"
    return None if filename == "~" else "other"


def rollup(profiler):
    """Self time per bucket and entry-point call counts of one profile."""
    stats = pstats.Stats(profiler).stats
    self_s = dict.fromkeys(BUCKETS, 0.0)
    counts = dict.fromkeys(list(_COUNTED) + list(_COUNTED_FROM_OUTSIDE), 0)
    wanted = {entry: metric for metric, entries in _COUNTED.items()
              for entry in entries}
    for (filename, _line, funcname), (_cc, nc, tt, _ct, callers) \
            in stats.items():
        bucket = bucket_of(filename, funcname)
        if bucket is None:
            # callers: {(file, line, name): (nc, cc, tt, ct)}, where tt is
            # this built-in's self time in calls from that caller.
            for (cfile, _cline, cname), caller in callers.items():
                self_s[bucket_of(cfile, cname) or "other"] += caller[2]
                tt -= caller[2]
            bucket = "other"  # any time no caller accounts for
        self_s[bucket] += tt
        rel = _relpath(filename)
        if rel is None:
            continue
        metric = wanted.get((rel, funcname))
        if metric is not None:
            counts[metric] += nc
        for metric, (prefix, name) in _COUNTED_FROM_OUTSIDE.items():
            if funcname == name and rel.startswith(prefix):
                counts[metric] += sum(
                    caller[0] for key, caller in callers.items()
                    if not (_relpath(key[0]) or "").startswith(prefix))
    return {"self_s": self_s, "counts": counts}


def layer_metrics(rolled, traced_run_s, untraced_run_s):
    """The per-layer metrics, ``{name: {"value": v, "unit": u}}``, of a
    profiled pass whose run phase took ``traced_run_s`` host seconds under
    the profiler and ``untraced_run_s`` without it."""
    self_s, counts = rolled["self_s"], rolled["counts"]
    metrics = {f"{name}.self_s": (value, "s")
               for name, value in self_s.items()}
    metrics.update({name: (value, "count") for name, value in counts.items()})
    events = counts["sim.events"]
    metrics["sim.us_per_event"] = (
        untraced_run_s * SEC / events if events else 0.0, "us")
    gets = counts["cluster.strategies.gets"]
    metrics["cluster.strategies.amplification"] = (
        counts["cluster.node_gets"] / gets if gets else 0.0, "ratio")
    admits = counts["mittos.admits"]
    metrics["mittos.reject_frac"] = (
        counts["kernel.ebusy"] / admits if admits else 0.0, "fraction")
    metrics["trace.coverage"] = (
        sum(self_s.values()) / traced_run_s, "fraction")
    metrics["trace_overhead_x"] = (traced_run_s / untraced_run_s, "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}

#!/usr/bin/env python3
"""Time the repo benchmark on a parent revision and on the working tree.

    python3 benchmarks/compare.py --base REV

REV is checked out into a temporary git worktree.  For each workload of the
working tree's ``BENCHMARK.json``, ``benchmarks/e2e/run.py`` then runs on
both trees in ``PAIRS`` pairs.  Both runs of pair k use seed
``FIRST_SEED + k``; the parent runs first when k is even and the change
when k is odd, so drift in host speed falls on both sides alike.  Each run
starts in its own tree, and ``run.py`` imports that tree's ``src``.

For each workload and end-to-end metric it prints the parent's and the
change's median with quartiles, the pairs the change won, the relative
change of the medians and a verdict against the metric's bound:

- ``worse``: the change's median is worse than the parent's by more than
  bound x the parent's median.  This fails the comparison.
- ``better``: the change is strictly better in at least ``MIN_WINS`` pairs,
  and the medians differ by more than the parent's quartile distance.
- ``unresolved``: the parent's quartile distance exceeds bound x its
  median, unless every change run beats every parent run.
- ``same``: anything else.

Per workload it also prints in how many pairs the two sides simulated the
same ``sim_digest``.  A changed digest is reported but does not fail on its
own; the tier-1 kernel goldens gate behaviour.  A run that exits non-zero,
prints no result or reports ``correct: false`` fails the comparison.

The last line is ``compare: OK`` or ``compare: FAIL ...``.  The exit
status is 0, 1, or 2 when REV cannot be compared.  Only the standard
library is used and ``repro`` is never imported, so the two trees may
differ in it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = "benchmarks/e2e/run.py"

SIDES = ("parent", "change")
PAIRS = 10
FIRST_SEED = 7
#: Pairs the change must win for a ``better`` verdict.
MIN_WINS = 9


class RunFailed(Exception):
    """A run exited non-zero, printed no result or was not correct."""


def run_pass(tree, workload, seed, seconds):
    """One ``run.py`` run in ``tree``: its last line, plus the
    ``sim_digest`` of the line before it.  A run that exits non-zero or
    prints no result comes back with ``correct`` false and an ``error``."""
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        result["sim_digest"] = json.loads(lines[-2])["sim_digest"]
    except (IndexError, KeyError, ValueError):
        result = {"correct": False, "error": "no JSON result"}
    if proc.returncode:
        stderr = proc.stderr.strip().splitlines()[-1:]
        result.update(correct=False, error=" ".join(
            [f"exit {proc.returncode}", *stderr]))
    return result


def verdict(parent, change, better, bound):
    """(verdict, pairs won) for one metric's per-pair values."""
    sign = 1 if better == "lower" else -1
    parent = [sign * value for value in parent]  # lower is better from here
    change = [sign * value for value in change]
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gain = median - statistics.median(change)
    wins = sum(c < p for p, c in zip(parent, change))
    if -gain > bound * abs(median):
        return "worse", wins
    if wins >= MIN_WINS and gain > q3 - q1:
        return "better", wins
    if q3 - q1 > bound * abs(median) and max(change) >= min(parent):
        return "unresolved", wins
    return "same", wins


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def _pairs(trees, workload, seconds, run):
    """The workload's ``PAIRS`` pairs: ``{"parent": result, "change":
    result}`` each."""
    pairs = []
    for k in range(PAIRS):
        seed = FIRST_SEED + k
        pair = {}
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            pair[side] = result = run(trees[side], workload, seed, seconds)
            if not result.get("correct"):
                raise RunFailed(f"{side} {workload} seed {seed}: "
                                + result.get("error", "correct: false"))
        pairs.append(pair)
    return pairs


def compare(trees, bench, run=run_pass):
    """Run every workload's pairs on ``trees`` (a path per side in
    ``SIDES``) with ``run`` and print the table; returns the failures."""
    failures = []
    print(f"{'workload':<12} {'metric':<12} {'parent median [q1, q3]':>28} "
          f"{'change median [q1, q3]':>28} wins  change  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        try:
            pairs = _pairs(trees, workload, bench["run_seconds"], run)
        except RunFailed as exc:
            print(f"{workload:<12} not compared: {exc}")
            failures.append(str(exc))
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent, change = ([p[side]["metrics"][name]["value"]
                               for p in pairs] for side in SIDES)
            outcome, wins = verdict(parent, change, metric["better"],
                                    metric["bound"])
            p_med, c_med = statistics.median(parent), statistics.median(change)
            rel = (c_med - p_med) / abs(p_med) if p_med else 0.0
            print(f"{workload:<12} {name:<12} {_quartiles(parent):>28} "
                  f"{_quartiles(change):>28} {wins:>2}/{PAIRS} {rel:>+7.1%}  "
                  f"{outcome}")
            if outcome == "worse":
                failures.append(f"{workload} {name} worse by {rel:+.1%}")
        same = sum(p["parent"]["sim_digest"] == p["change"]["sim_digest"]
                   for p in pairs)
        print(f"{workload:<12} sim_digest same in {same}/{PAIRS} pairs")
    return failures


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, metavar="REV",
                        help="the parent revision to compare against")
    args = parser.parse_args(argv)
    if _git("rev-parse", "--verify", "--quiet",
            f"{args.base}^{{commit}}").returncode:
        print(f"error: unknown revision {args.base!r}", file=sys.stderr)
        return 2
    if _git("cat-file", "-e", f"{args.base}:{RUN_PY}").returncode:
        print(f"error: {args.base} has no {RUN_PY}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        try:
            added = _git("worktree", "add", "--detach", str(tree), args.base)
            if added.returncode:
                print(f"error: git worktree add: {added.stderr.strip()}",
                      file=sys.stderr)
                return 2
            failures = compare({"parent": tree, "change": ROOT}, bench)
        finally:
            _git("worktree", "remove", "--force", str(tree))
    print("compare: " + ("FAIL " + "; ".join(failures) if failures
                         else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.stdout.reconfigure(line_buffering=True)  # rows show as they finish
    sys.exit(main())

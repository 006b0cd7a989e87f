"""CLI: ``python -m repro.analysis <lint|races|rules> ...``.

* ``lint [paths...] [--format human|json|sarif] [--jobs N]
  [--baseline FILE | --write-baseline FILE]`` — the static linter:
  per-file rules DET001-DET010/DET016 plus the whole-program passes
  DET011-DET015 (event flow, effects) and DETW01 (dead topics).
* ``races --scenario fig3 --perturbations 8`` — the dynamic tie-order
  perturbation harness over a registered scenario hook.
* ``rules`` — list rule IDs and what they check.
"""

import argparse
import os
import sys
from pathlib import Path

from repro.analysis.linter import (filter_baseline, lint_paths_program,
                                   load_baseline, render_findings,
                                   write_baseline)
from repro.analysis.rules import RULES

#: Default lint targets, relative to the repo root: everything we ship
#: runs under the determinism contract, not just the library — benchmark
#: and example code feeds the same simulators.  Defaults that do not
#: exist (e.g. when invoked from an installed package) are skipped;
#: explicitly-passed paths must exist.
DEFAULT_LINT_PATHS = ("src/repro", "benchmarks", "examples")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism analysis for the MittOS reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the determinism linter")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories (default: "
                           + " ".join(DEFAULT_LINT_PATHS) + ")")
    lint.add_argument("--format", choices=("human", "json", "sarif"),
                      default="human")
    lint.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="worker processes (default: cpu count, capped "
                           "at 8); fans out one task per file plus one "
                           "per whole-program pass")
    lint.add_argument("--baseline", metavar="FILE",
                      help="fail only on findings not recorded in this "
                           "baseline file (see --write-baseline)")
    lint.add_argument("--write-baseline", metavar="FILE",
                      help="record the current findings as the accepted "
                           "baseline and exit 0")
    lint.add_argument("--rules", metavar="IDS",
                      help="comma-separated rule IDs to run "
                           "(default: all)")

    races = sub.add_parser(
        "races", help="tie-order perturbation harness: re-run a scenario "
                      "with the event heap's same-timestamp tie-break "
                      "permuted and diff the canonical timelines")
    races.add_argument("--scenario", default="fig3",
                       help="registered scenario id (see --list)")
    races.add_argument("--perturbations", type=int, default=8,
                       metavar="N", help="number of shuffled tie-break "
                                         "salts to try (default: 8)")
    races.add_argument("--seed", type=int, default=7)
    races.add_argument("--list", action="store_true",
                       help="list registered scenario ids and exit")

    sub.add_parser("rules", help="list rule IDs and what they check")

    args = parser.parse_args(argv)
    if args.command == "rules":
        for rule in RULES.values():
            if rule.id == "DET000":
                continue
            print(f"{rule.id}  {rule.name:22s} {rule.summary}")
        return 0

    if args.command == "races":
        return _races(args, parser)

    rules = None
    if args.rules:
        rules = {r.strip().upper() for r in args.rules.split(",")}
        unknown = rules - RULES.keys()
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return _lint(args, parser, rules)


def _lint(args, parser, rules):
    if args.paths:
        paths = args.paths
        missing = [p for p in paths if not Path(p).exists()]
        if missing:
            parser.error(
                f"no such file or directory: {', '.join(missing)}")
    else:
        paths = [p for p in DEFAULT_LINT_PATHS if Path(p).exists()]
        if not paths:
            parser.error("none of the default lint paths exist here; "
                         "pass explicit paths")
    jobs = args.jobs if args.jobs is not None \
        else min(os.cpu_count() or 1, 8)
    if jobs < 1:
        parser.error("--jobs must be >= 1")
    findings = lint_paths_program(paths, rules=rules, jobs=jobs)
    if args.write_baseline:
        count = write_baseline(findings, args.write_baseline)
        print(f"baseline: recorded {count} finding(s) "
              f"-> {args.write_baseline}")
        return 0
    if args.baseline:
        if not Path(args.baseline).exists():
            parser.error(f"no such baseline file: {args.baseline}")
        findings = filter_baseline(findings, load_baseline(args.baseline))
    print(render_findings(findings, fmt=args.format))
    if any(f.rule == "DET000" for f in findings):
        return 2
    return 1 if findings else 0


def _races(args, parser):
    """Run the tie-order perturbation harness on a registered scenario."""
    from repro.analysis.races import perturb_ties
    from repro.experiments.registry import SCENARIOS, get_scenario

    if args.list:
        for scenario_id, (_, _, description) in sorted(SCENARIOS.items()):
            print(f"{scenario_id:14s} {description}")
        return 0
    try:
        scenario = get_scenario(args.scenario)
    except KeyError as err:
        parser.error(str(err))
    report = perturb_ties(scenario, seed=args.seed,
                          perturbations=args.perturbations,
                          scenario_name=args.scenario)
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

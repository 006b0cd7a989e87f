"""CLI: ``python -m repro.analysis <lint|check|rules> ...``.

* ``lint [paths...] [--format human|json|sarif] [--rules IDS]`` — the
  static linter:
  per-file rules DET001-DET010/DET016 plus the whole-program passes
  DET011-DET015 (event flow, effects) and DETW01 (dead topics).
* ``check [--scenario ID] [--perturbations N] [--seed N] [--list]`` —
  the runtime determinism gate (replay, tracing neutrality, schema,
  tie order) over every registered scenario hook, or one.
* ``rules`` — list rule IDs and what they check.
"""

import argparse
import sys
from pathlib import Path

from repro.analysis.linter import lint_paths, render_findings
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
    lint.add_argument("--rules", metavar="IDS",
                      help="comma-separated rule IDs to run "
                           "(default: all)")

    check = sub.add_parser(
        "check", help="determinism gate: exact replay, tracing "
                      "neutrality, schema validation and tie-order "
                      "perturbation over the registered scenarios")
    check.add_argument("--scenario", default=None, metavar="ID",
                       help="registered scenario id (default: every "
                            "one; see --list)")
    check.add_argument("--perturbations", type=int, default=4,
                       metavar="N", help="number of shuffled tie-break "
                                         "salts to try (default: 4)")
    check.add_argument("--seed", type=int, default=7)
    check.add_argument("--list", action="store_true",
                       help="list registered scenario ids and exit")

    sub.add_parser("rules", help="list rule IDs and what they check")

    args = parser.parse_args(argv)
    if args.command == "rules":
        for rule in RULES.values():
            if rule.id == "DET000":
                continue
            print(f"{rule.id}  {rule.name:22s} {rule.summary}")
        return 0

    if args.command == "check":
        return _check(args, parser)

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
    findings = lint_paths(paths, rules=rules)
    print(render_findings(findings, fmt=args.format))
    if any(f.rule == "DET000" for f in findings):
        return 2
    return 1 if findings else 0


def _check(args, parser):
    """Run the determinism gate on one or every registered scenario."""
    from repro.analysis.check import check
    from repro.experiments.registry import SCENARIOS, get_scenario

    if args.list:
        for scenario_id, (_, _, description) in sorted(SCENARIOS.items()):
            print(f"{scenario_id:14s} {description}")
        return 0
    ids = sorted(SCENARIOS) if args.scenario is None else [args.scenario]
    try:
        scenarios = [(sid, get_scenario(sid)) for sid in ids]
    except KeyError as err:
        parser.error(err.args[0])
    failed = []
    for scenario_id, scenario in scenarios:
        report = check(scenario, seed=args.seed,
                       perturbations=args.perturbations, name=scenario_id)
        print(report.render(), flush=True)
        if not report.ok:
            failed.append(scenario_id)
    verdict = "OK" if not failed else "FAILED " + ", ".join(failed)
    print(f"determinism check: {len(ids) - len(failed)} of {len(ids)} "
          f"scenario(s) passed: {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

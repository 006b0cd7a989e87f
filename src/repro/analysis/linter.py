"""File walking, suppression handling, and finding aggregation.

Two layers of rules run over every lint invocation:

* **per-file** rules (``DET001``-``DET010``, ``DET016``) — one AST
  checker per file, embarrassingly parallel;
* **whole-program** rules (``DET011``-``DET015``, ``DETW01``) — the
  event-flow contract pass (:mod:`repro.analysis.eventflow`) and the
  interprocedural effect pass (:mod:`repro.analysis.effects`), each of
  which needs every file's AST at once.

``jobs=N`` fans *both* layers out across a process pool: each per-file
check is one task, and each whole-program pass is one task (a pass is
indivisible, but the two passes are independent of each other).  The
merged output is sorted, so results are byte-identical at any job
count.

Both layers share the suppression grammar (``# repro: allow[DET00X]``
line pragmas, ``# repro: allow-file[...]`` in the first five lines) and
the output formats.  :func:`lint_source` treats its single file as a
one-file program, so fixtures exercise the whole-program rules through
the same API as everything else.
"""

import ast
import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.analysis.rules import CHECKERS, RULES, ModuleContext

#: Rules that need the whole file set (no per-file checker in CHECKERS),
#: grouped by the independent pass that computes them.
PROGRAM_PASS_RULES = {
    "eventflow": frozenset({"DET011", "DET012", "DET013", "DETW01"}),
    "effects": frozenset({"DET014", "DET015"}),
}
PROGRAM_RULES = frozenset().union(*PROGRAM_PASS_RULES.values())

#: ``# repro: allow[DET001]`` or ``# repro: allow[DET001,DET003] reason``.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9,\s]+)\]")

#: ``# repro: allow-file[DET003] reason`` — suppresses the named rules for
#: the whole file, but only when it appears in the first five lines so a
#: reviewer can't miss it.
_ALLOW_FILE_RE = re.compile(r"#\s*repro:\s*allow-file\[([A-Z0-9,\s]+)\]")

#: How many leading lines may carry an allow-file pragma.
_ALLOW_FILE_WINDOW = 5


@dataclass(frozen=True)
class Finding:
    """One determinism hazard at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self):
        return f"{self.path}:{self.line}:{self.col + 1}: " \
               f"{self.rule} {self.message}"

    def to_dict(self):
        d = asdict(self)
        d["rule_name"] = RULES[self.rule].name
        return d


def _suppressions(source):
    """Map line number -> set of rule IDs suppressed on that line.

    A trailing comment suppresses its own line; a comment on a line of its
    own suppresses the next code line (skipping further comment/blank
    lines, so multi-line justification comments work).
    """
    allowed = {}
    lines = source.splitlines()
    for lineno, text in enumerate(lines, start=1):
        match = _ALLOW_RE.search(text)
        if not match:
            continue
        ids = {part.strip() for part in match.group(1).split(",")
               if part.strip()}
        target = lineno
        if text[:match.start()].strip() == "":
            target = lineno + 1
            while target <= len(lines):
                stripped = lines[target - 1].strip()
                if stripped and not stripped.startswith("#"):
                    break
                target += 1
        allowed.setdefault(target, set()).update(ids)
    return allowed


def _file_suppressions(source):
    """Rule IDs suppressed for the whole file (pragma in first 5 lines)."""
    allowed = set()
    for text in source.splitlines()[:_ALLOW_FILE_WINDOW]:
        match = _ALLOW_FILE_RE.search(text)
        if match:
            allowed.update(part.strip() for part in
                           match.group(1).split(",") if part.strip())
    return allowed


class ProgramFile:
    """One loaded + parsed file of the linted program."""

    __slots__ = ("path", "path_parts", "tree", "error", "allowed",
                 "file_allowed")

    def __init__(self, source, path):
        path = Path(path)
        self.path = str(path)
        self.path_parts = path.parts
        self.allowed = _suppressions(source)
        self.file_allowed = _file_suppressions(source)
        try:
            self.tree = ast.parse(source)
            self.error = None
        except SyntaxError as err:
            self.tree = None
            self.error = Finding("DET000", self.path, err.lineno or 1, 0,
                                 f"could not parse: {err.msg}")

    @classmethod
    def load(cls, path):
        return cls(Path(path).read_text(encoding="utf-8"), path)


def _filter(pf, raw, rules):
    """Apply the rule selection + suppressions of one file to raw
    ``(rule, line, col, message)`` tuples."""
    findings = []
    for rule_id, line, col, message in raw:
        if rules is not None and rule_id not in rules:
            continue
        if rule_id in pf.file_allowed:
            continue
        if rule_id in pf.allowed.get(line, ()):
            continue
        findings.append(Finding(rule_id, pf.path, line, col, message))
    return findings


def _per_file_findings(pf, rules=None):
    """DET000-DET010 over one file (suppressions applied)."""
    if pf.error is not None:
        return [pf.error]
    ctx = ModuleContext(pf.path_parts, pf.tree)
    raw = []
    for rule_id, checker in CHECKERS.items():
        if rules is not None and rule_id not in rules:
            continue
        raw.extend(checker(pf.tree, ctx))
    return _filter(pf, raw, rules)


def _run_program_pass(pass_name, program, want):
    """Raw ``(rule, path, line, col, message)`` tuples of one
    whole-program pass.  Passes are imported lazily so the per-file half
    has no dependency on ``repro.obs``."""
    parsed = [(pf.path, pf.path_parts, pf.tree)
              for pf in program if pf.tree is not None]
    if pass_name == "eventflow":
        from repro.analysis.eventflow import analyze_eventflow
        return analyze_eventflow(parsed)
    if pass_name == "effects":
        from repro.analysis.effects import (EffectAnalysis, check_det014,
                                            check_det015)
        analysis = EffectAnalysis.build(parsed)
        raw = []
        if "DET014" in want:
            raw.extend(check_det014(analysis))
        if "DET015" in want:
            raw.extend(check_det015(analysis))
        return raw
    raise ValueError(f"unknown program pass: {pass_name}")


def _wanted_passes(rules):
    want = PROGRAM_RULES if rules is None else set(rules) & PROGRAM_RULES
    return want, [name for name, owned in sorted(PROGRAM_PASS_RULES.items())
                  if owned & want]


def _filter_raw(raw, by_path, rules):
    """Route raw program-pass tuples through each file's suppressions."""
    findings = []
    for rule_id, path, line, col, message in raw:
        pf = by_path[path]
        findings.extend(_filter(pf, [(rule_id, line, col, message)], rules))
    return findings


def _program_findings(program, rules=None):
    """All whole-program rules over the file set, suppressions applied."""
    want, passes = _wanted_passes(rules)
    raw = []
    for pass_name in passes:
        raw.extend(_run_program_pass(pass_name, program, want))
    by_path = {pf.path: pf for pf in program}
    return _filter_raw(raw, by_path, rules)


def lint_program(program, rules=None):
    """Both rule layers over loaded :class:`ProgramFile`\\ s, in
    deterministic order."""
    findings = []
    for pf in program:
        findings.extend(_per_file_findings(pf, rules=rules))
    findings.extend(_program_findings(program, rules=rules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(source, path, rules=None):
    """Lint one source string as if it lived at ``path`` (treated as a
    one-file program, so the whole-program rules run too)."""
    return lint_program([ProgramFile(source, path)], rules=rules)


def lint_file(path, rules=None):
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), path, rules=rules)


def iter_python_files(paths):
    """Expand files/directories into a sorted, deduplicated .py file list."""
    seen = set()
    for entry in paths:
        entry = Path(entry)
        candidates = sorted(entry.rglob("*.py")) if entry.is_dir() \
            else [entry]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def _parallel_worker(task):
    """One pool task (module-level: picklable).  Two task shapes:

    ``("file", path, rules)`` — per-file rules of one file; returns the
    already-filtered :class:`Finding` list.
    ``("pass", name, paths, rules)`` — one whole-program pass; reloads
    the program from disk and returns *raw* tuples (the parent applies
    suppressions, which need each file's pragma tables).
    """
    kind = task[0]
    if kind == "file":
        _, path, rules = task
        return _per_file_findings(ProgramFile.load(path),
                                  rules=set(rules) if rules else None)
    _, pass_name, paths, rules = task
    program = [ProgramFile.load(p) for p in paths]
    want, _passes = _wanted_passes(set(rules) if rules else None)
    return _run_program_pass(pass_name, program, want)


def lint_paths_program(paths, rules=None, jobs=1):
    """Lint every ``.py`` file under ``paths``.

    ``jobs > 1`` fans out over a process pool: one task per file for the
    per-file rules plus one task per whole-program pass (eventflow /
    effects — each pass needs every AST, but the passes are independent
    of each other).  Program passes are queued first so the slowest
    tasks start immediately.  The merged output is sorted, so it is
    byte-identical at any job count.
    """
    files = list(iter_python_files(paths))
    if jobs and jobs > 1 and len(files) > 1:
        import multiprocessing
        rule_arg = sorted(rules) if rules else None
        path_args = tuple(str(p) for p in files)
        _want, passes = _wanted_passes(rules)
        tasks = [("pass", name, path_args, rule_arg) for name in passes]
        tasks += [("file", p, rule_arg) for p in path_args]
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            results = pool.map(_parallel_worker, tasks)
        findings = []
        raw = []
        for task, result in zip(tasks, results):
            if task[0] == "file":
                findings.extend(result)
            else:
                raw.extend(result)
        by_path = {p: ProgramFile.load(p) for p in path_args}
        findings.extend(_filter_raw(raw, by_path, rules))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings
    return lint_program([ProgramFile.load(p) for p in files], rules=rules)


def lint_paths(paths, rules=None):
    """Lint every ``.py`` file under the given files/directories."""
    return lint_paths_program(paths, rules=rules)


# -- baselines ---------------------------------------------------------------

def baseline_key(finding):
    """Location-insensitive identity of a finding: line numbers drift on
    every edit, so baselines key on (rule, path, message) with counts."""
    return f"{finding.rule}|{finding.path}|{finding.message}"


def write_baseline(findings, path):
    """Record the current findings as the accepted baseline."""
    counts = {}
    for finding in findings:
        key = baseline_key(finding)
        counts[key] = counts.get(key, 0) + 1
    Path(path).write_text(json.dumps(
        {"version": 1, "findings": dict(sorted(counts.items()))},
        indent=2) + "\n", encoding="utf-8")
    return len(findings)


def load_baseline(path):
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return dict(data.get("findings", {}))


def filter_baseline(findings, baseline):
    """Drop findings covered by the baseline (each key has a budget of
    ``count`` occurrences); what remains is *new* since it was written."""
    budget = dict(baseline)
    fresh = []
    for finding in findings:
        key = baseline_key(finding)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
        else:
            fresh.append(finding)
    return fresh


# -- rendering ---------------------------------------------------------------

def _sarif(findings):
    """A SARIF 2.1.0 log: one run, the full rule catalogue in the driver,
    one result per finding.  Consumable by GitHub code scanning and most
    editors' SARIF viewers."""
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-determinism-lint",
                "informationUri":
                    "https://example.invalid/repro/analysis",
                "rules": [{
                    "id": rule.id,
                    "name": rule.name,
                    "shortDescription": {"text": rule.summary},
                } for rule in RULES.values()],
            }},
            "results": [{
                "ruleId": f.rule,
                "level": "error" if f.rule == "DET000"
                         else "note" if f.rule.startswith("DETW")
                         else "warning",
                "message": {"text": f.message},
                "locations": [{"physicalLocation": {
                    "artifactLocation": {
                        "uri": f.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {"startLine": f.line,
                               "startColumn": f.col + 1},
                }}],
            } for f in findings],
        }],
    }


def render_findings(findings, fmt="human"):
    """Render findings as a human report, a JSON document, or SARIF."""
    if fmt == "json":
        return json.dumps({
            "findings": [f.to_dict() for f in findings],
            "count": len(findings),
        }, indent=2)
    if fmt == "sarif":
        return json.dumps(_sarif(findings), indent=2)
    if not findings:
        return "determinism lint: clean"
    lines = [f.render() for f in findings]
    lines.append(f"determinism lint: {len(findings)} finding(s)")
    return "\n".join(lines)

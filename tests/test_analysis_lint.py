"""Fixture-driven tests for the determinism linter (DET001-DET016, DETW01)."""

import json
from pathlib import Path

import pytest

from repro.analysis import RULES, lint_file, lint_paths
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.linter import lint_source, render_findings

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

#: fixture file -> rule IDs that MUST fire there.
POSITIVE = {
    "det001_bad.py": "DET001",
    "det002_bad.py": "DET002",
    "kernel/det003_bad.py": "DET003",
    "det004_bad.py": "DET004",
    "kernel/det005_bad.py": "DET005",
    "cluster/det006_bad.py": "DET006",
    "det007_bad.py": "DET007",
    "det008_bad.py": "DET008",
    "det009_bad.py": "DET009",
    "devices/det010_bad.py": "DET010",
    "det011_bad.py": "DET011",
    "det012_bad.py": "DET012",
    "det013_bad.py": "DET013",
    "cluster/det014_bad.py": "DET014",
    "det015_bad.py": "DET015",
    "sim/det016_bad.py": "DET016",
    "repro/obs/schema.py": "DETW01",
}

#: fixture file -> rule ID that must NOT fire there.
NEGATIVE = {
    "det001_ok.py": "DET001",
    "metrics/det002_ok.py": "DET002",
    "kernel/det003_ok.py": "DET003",
    "det003_nonscheduling_ok.py": "DET003",
    "det004_ok.py": "DET004",
    "sim/core.py": "DET005",
    "cluster/det006_suppressed_ok.py": "DET006",
    "det007_suppressed_ok.py": "DET007",
    "det008_suppressed_ok.py": "DET008",
    "det009_suppressed_ok.py": "DET009",
    "devices/det010_suppressed_ok.py": "DET010",
    "det011_suppressed_ok.py": "DET011",
    "det012_suppressed_ok.py": "DET012",
    "det013_suppressed_ok.py": "DET013",
    "cluster/det014_suppressed_ok.py": "DET014",
    "det015_sorted_ok.py": "DET015",
    "sim/det016_suppressed_ok.py": "DET016",
    "detw01_ok.py": "DETW01",
}


def rules_in(path):
    return {f.rule for f in lint_file(FIXTURES / path)}


@pytest.mark.parametrize("fixture,rule", sorted(POSITIVE.items()))
def test_positive_fixture_fires(fixture, rule):
    assert rule in rules_in(fixture)


@pytest.mark.parametrize("fixture,rule", sorted(NEGATIVE.items()))
def test_negative_fixture_is_silent(fixture, rule):
    assert rule not in rules_in(fixture)


def test_positive_fixtures_only_fire_their_own_rule():
    for fixture, rule in POSITIVE.items():
        assert rules_in(fixture) == {rule}, fixture


def test_every_rule_has_positive_and_negative_coverage():
    checkable = set(RULES) - {"DET000"}
    assert set(POSITIVE.values()) == checkable
    assert set(NEGATIVE.values()) == checkable


def test_suppression_comments_silence_findings():
    assert lint_file(FIXTURES / "suppressed_ok.py") == []


def test_suppression_is_rule_specific():
    src = "import time\nx = time.time()  # repro: allow[DET001] wrong id\n"
    findings = lint_source(src, "foo.py")
    assert [f.rule for f in findings] == ["DET002"]


def test_file_level_suppression_in_first_five_lines():
    src = ("# repro: allow-file[DET001, DET002] fixture: whole-file allow\n"
           "import random\n"
           "import time\n"
           "x = random.random()\n"
           "y = time.time()\n"
           "z = random.random()\n")
    assert lint_source(src, "foo.py") == []


def test_file_level_suppression_is_rule_specific():
    src = ("# repro: allow-file[DET001] fixture\n"
           "import random\n"
           "import time\n"
           "x = random.random()\n"
           "y = time.time()\n")
    assert [f.rule for f in lint_source(src, "foo.py")] == ["DET002"]


def test_file_level_suppression_ignored_after_line_five():
    src = ("import random\n" + "\n" * 5
           + "# repro: allow-file[DET001] too late to count\n"
           + "x = random.random()\n")
    assert [f.rule for f in lint_source(src, "foo.py")] == ["DET001"]


def test_det007_flags_wall_clock_schedule_time():
    src = ("import time\n"
           "def arm(sim):\n"
           "    sim.schedule_at(time.time(), arm)\n")
    # metrics/ is DET002-exempt, but feeding the wall clock into the
    # event heap is a hazard everywhere.
    assert {f.rule for f in lint_source(src, "metrics/report.py")} \
        == {"DET007"}


def test_parse_error_reported_as_det000():
    findings = lint_source("def broken(:\n", "bad.py")
    assert [f.rule for f in findings] == ["DET000"]


def test_lint_paths_walks_directories():
    findings = lint_paths([FIXTURES])
    assert {f.rule for f in findings} == set(RULES) - {"DET000"}
    # Positive fixtures only: every *_ok.py file stays clean.
    assert all("_ok.py" not in f.path for f in findings)


def test_findings_carry_location_and_render():
    finding = lint_file(FIXTURES / "det001_bad.py")[0]
    assert finding.line > 0
    rendered = finding.render()
    assert "det001_bad.py" in rendered and "DET001" in rendered


def test_json_output_round_trips():
    findings = lint_file(FIXTURES / "det004_bad.py")
    doc = json.loads(render_findings(findings, fmt="json"))
    assert doc["count"] == len(findings) > 0
    assert doc["findings"][0]["rule"] == "DET004"
    assert doc["findings"][0]["rule_name"] == "float-time-equality"


def test_sarif_output_is_valid_sarif_210():
    findings = lint_file(FIXTURES / "det009_bad.py")
    doc = json.loads(render_findings(findings, fmt="sarif"))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert rule_ids == set(RULES)
    assert len(run["results"]) == len(findings) > 0
    result = run["results"][0]
    assert result["ruleId"] == "DET009"
    assert result["level"] == "warning"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == findings[0].line
    assert region["startColumn"] == findings[0].col + 1


def test_sarif_output_empty_findings(capsys):
    assert analysis_main(["lint", str(FIXTURES / "det001_ok.py"),
                          "--format", "sarif"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["results"] == []


def test_cli_exit_codes(capsys):
    assert analysis_main(["lint", str(FIXTURES / "det001_ok.py")]) == 0
    assert analysis_main(["lint", str(FIXTURES / "det001_bad.py")]) == 1
    assert analysis_main(["rules"]) == 0
    out = capsys.readouterr().out
    assert "DET005" in out


def test_cli_rule_filter(capsys):
    code = analysis_main(["lint", str(FIXTURES / "det001_bad.py"),
                          "--rules", "DET002"])
    assert code == 0  # DET001 findings filtered out
    capsys.readouterr()


def test_repo_tree_is_clean():
    root = Path(__file__).parent.parent
    paths = [root / "src" / "repro", root / "benchmarks", root / "examples"]
    findings = lint_paths([p for p in paths if p.exists()])
    assert findings == [], "\n".join(f.render() for f in findings)

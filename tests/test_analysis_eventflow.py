"""Whole-program contract analyzer: DET011-DET015, DETW01.

The planted-drift tests mutate *real* repo sources (a topic typo, a
payload-key rename, a consumer-key rename) and assert the right rule
catches each — the end-to-end failure mode this PR exists to close.
"""

from pathlib import Path

from repro.analysis.linter import lint_paths, lint_source

ROOT = Path(__file__).parent.parent
SCHEDULER = ROOT / "src" / "repro" / "kernel" / "scheduler.py"
ACCURACY = ROOT / "src" / "repro" / "obs" / "accuracy.py"
FIXTURES = Path(__file__).parent / "fixtures" / "lint"


def _rules(findings):
    return [f.rule for f in findings]


# -- planted drift in real sources -------------------------------------------

def test_planted_topic_typo_in_scheduler_caught_by_det011():
    source = SCHEDULER.read_text()
    assert "bus.record(IO_SUBMIT," in source
    mutated = source.replace("bus.record(IO_SUBMIT,",
                             'bus.record("io.submitted",')
    findings = lint_source(mutated, SCHEDULER.relative_to(ROOT))
    assert _rules(findings) == ["DET011"]
    assert "io.submitted" in findings[0].message


def test_planted_payload_rename_in_scheduler_caught_by_det012():
    source = SCHEDULER.read_text()
    assert 'fields["latency"]' in source
    mutated = source.replace('fields["latency"]', 'fields["latency_us"]')
    findings = lint_source(mutated, SCHEDULER.relative_to(ROOT))
    assert set(_rules(findings)) == {"DET012"}
    messages = " | ".join(f.message for f in findings)
    assert "latency_us" in messages          # undeclared key
    assert "missing required key 'latency'" in messages


def test_planted_consumer_rename_in_accuracy_caught_by_det013():
    source = ACCURACY.read_text()
    assert 'fields.get("predicted_wait")' in source
    mutated = source.replace('fields.get("predicted_wait")',
                             'fields.get("predicted_wait_us")')
    findings = lint_source(mutated, ACCURACY.relative_to(ROOT))
    assert _rules(findings) == ["DET013"]
    assert "predicted_wait_us" in findings[0].message
    assert "predictor.verdict" in findings[0].message


def test_unmutated_sources_are_clean():
    assert lint_source(SCHEDULER.read_text(),
                       SCHEDULER.relative_to(ROOT)) == []
    assert lint_source(ACCURACY.read_text(),
                       ACCURACY.relative_to(ROOT)) == []


# -- DET012 payload resolution edges -----------------------------------------

def test_det012_star_expansion_checks_only_visible_keys():
    src = (
        "from repro.obs.events import VERDICT, request_fields\n"
        "def verdict(bus, req, labels):\n"
        "    bus.record(VERDICT, dict(request_fields(req),\n"
        "                             predictor='x', bogus=1, **labels))\n"
    )
    findings = lint_source(src, "x/emit.py")
    # 'bogus' is undeclared -> flagged; missing required keys are NOT
    # flagged because **labels may provide them.
    assert _rules(findings) == ["DET012"]
    assert "bogus" in findings[0].message


def test_det012_opaque_payload_is_skipped():
    src = (
        "from repro.obs.events import VERDICT\n"
        "def verdict(bus, payload):\n"
        "    bus.record(VERDICT, payload)\n"
    )
    assert lint_source(src, "x/emit.py") == []


def test_non_trace_record_methods_are_ignored():
    src = (
        "def mark(health, node_id, ok):\n"
        "    health.record(node_id, ok)\n"
        "def log(recorder, event):\n"
        "    recorder.record(event)\n"
    )
    assert lint_source(src, "x/consume.py") == []


# -- DET013 attribution edges ------------------------------------------------

def test_det013_by_topic_loop_attribution():
    src = (
        "from repro.obs.events import SPAN_OP\n"
        "def totals(recorder):\n"
        "    out = []\n"
        "    for ev in recorder.by_topic(SPAN_OP):\n"
        "        out.append(ev.fields['grand_total'])\n"
        "    return out\n"
    )
    findings = lint_source(src, "x/consume.py")
    assert _rules(findings) == ["DET013"]
    assert "grand_total" in findings[0].message


def test_det013_union_of_topics_in_view():
    # A shared helper reached from two guards is checked against the
    # union of both schemas — 'dev' (io.submit) and 'device'
    # (io.service_start) are each fine, a stranger key is not.
    src = (
        "from repro.obs.events import IO_SERVICE_START, IO_SUBMIT\n"
        "def _dev(fields):\n"
        "    return fields.get('dev') or fields.get('device')\n"
        "def fold(ev):\n"
        "    if ev.topic == IO_SUBMIT:\n"
        "        return _dev(ev.fields)\n"
        "    if ev.topic == IO_SERVICE_START:\n"
        "        return _dev(ev.fields)\n"
        "    return None\n"
    )
    assert lint_source(src, "x/consume.py") == []


def test_det013_unattributed_reads_are_skipped():
    src = (
        "def peek(fields):\n"
        "    return fields.get('whatever')\n"
    )
    assert lint_source(src, "x/consume.py") == []


# -- DET014 / DET015 interprocedural edges -----------------------------------

def test_det014_through_two_helper_frames():
    src = (
        "def _draw(sim):\n"
        "    # repro: allow[DET006] reviewed\n"
        "    return sim.rng('faults/net').random()\n"
        "def _jitter(sim):\n"
        "    return _draw(sim)\n"
        "def hop(sim):\n"
        "    return 10.0 + _jitter(sim)\n"
    )
    findings = lint_source(src, "cluster/net.py")
    assert set(_rules(findings)) == {"DET014"}
    # fires at the _jitter->_draw frame AND the hop->_jitter frame
    assert len(findings) == 2
    assert all("faults/net" in f.message for f in findings)


def test_det014_does_not_cross_package_boundaries():
    # An experiments-layer call into a faults-layer API is a legitimate
    # cross-package call: the callee's streams are its own accounting.
    files = {
        "src/repro/faults/plane.py": (
            "def drop_message(sim):\n"
            "    return sim.rng('faults/net').random() < 0.1\n"
        ),
        "src/repro/experiments/run.py": (
            "from repro.faults.plane import drop_message\n"
            "def step(sim):\n"
            "    return drop_message(sim)\n"
        ),
    }
    import ast
    from repro.analysis.effects import (EffectAnalysis, check_det014)
    parsed = [(p, Path(p).parts, ast.parse(s)) for p, s in files.items()]
    analysis = EffectAnalysis.build(parsed)
    assert check_det014(analysis) == []
    # ...but the stream effect is still visible on the callee itself.
    key = ("src/repro/faults/plane.py", "drop_message")
    assert analysis.transitive_streams(key) == {"faults/net"}


def test_det015_direct_schedule_in_set_loop():
    src = (
        "def flush(sim, batch):\n"
        "    stale = {b for b in batch if b.old}\n"
        "    for item in stale:\n"
        "        sim.schedule_in(1.0, item.close)\n"
    )
    findings = lint_source(src, "tools/gc.py")
    assert _rules(findings) == ["DET015"]


def test_det015_sorted_iteration_is_clean():
    src = (
        "def flush(sim, batch):\n"
        "    stale = {b for b in batch if b.old}\n"
        "    for item in sorted(stale):\n"
        "        sim.schedule_in(1.0, item.close)\n"
    )
    assert lint_source(src, "tools/gc.py") == []


# -- dead topics (DETW01) ----------------------------------------------------

def test_dead_topics_silent_without_registry_in_view():
    # A partial program without repro.obs.schema in the linted set just
    # means "emitter not in view" — never a finding.
    findings = lint_paths([FIXTURES / "det012_bad.py"])
    assert not any(f.rule == "DETW01" for f in findings)


def test_dead_topic_findings_anchor_at_the_registry():
    registry = FIXTURES / "repro" / "obs" / "schema.py"
    findings = lint_paths([registry, FIXTURES / "detw01_ok.py"])
    dead = [f for f in findings if f.rule == "DETW01"]
    assert dead and all(f.path == str(registry) for f in dead)
    messages = " | ".join(f.message for f in dead)
    # detw01_ok.py emits io.submit, so it is alive ...
    assert "'io.submit'" not in messages
    # ... while slo.shed has no emitter in view and anchors at its
    # declaration line in the (fixture) registry.
    slo_shed = next(f for f in dead if "'slo.shed'" in f.message)
    registry_lines = registry.read_text().splitlines()
    assert registry_lines[slo_shed.line - 1].startswith("SLO_SHED")


def test_dead_topic_suppressible_at_the_declaration_line(tmp_path):
    registry = tmp_path / "repro" / "obs" / "schema.py"
    registry.parent.mkdir(parents=True)
    registry.write_text(
        "SLO_SHED = 'slo.shed'  # repro: allow[DETW01] emitter pending\n")
    findings = lint_paths([registry])
    assert not any("'slo.shed'" in f.message for f in findings
                   if f.rule == "DETW01")


def test_no_dead_topics_over_the_whole_repo():
    paths = [ROOT / "src" / "repro", ROOT / "benchmarks",
             ROOT / "examples"]
    findings = lint_paths([p for p in paths if p.exists()])
    assert findings == [], "\n".join(f.render() for f in findings)

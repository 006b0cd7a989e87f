"""Event-schema registry + TraceRecorder(validate=True) enforcement."""

import pytest

from repro.obs.bus import TraceRecorder, tracing
from repro.obs.events import ALL_TOPICS, IO_COMPLETE, TraceEvent, VERDICT
from repro.obs.schema import (SCHEMAS, SchemaViolation, declared_keys,
                              validate_fields)


def _complete_fields(**overrides):
    fields = {"req": 1, "op": "read", "offset": 0, "size": 4096,
              "pid": 3, "dev": "disk0", "latency": 812.5}
    fields.update(overrides)
    return fields


# -- registry shape ----------------------------------------------------------

def test_every_topic_has_a_schema_and_order_matches_events():
    assert tuple(SCHEMAS) == ALL_TOPICS
    for topic, schema in SCHEMAS.items():
        assert schema.topic == topic
        assert schema.doc
        assert schema.required or schema.optional


def test_declared_keys():
    assert "latency" in declared_keys(IO_COMPLETE)
    assert "predicted_wait" in declared_keys(VERDICT)
    assert declared_keys("no.such.topic") is None


# -- validate_fields ---------------------------------------------------------

def test_validate_fields_clean():
    assert validate_fields(IO_COMPLETE, _complete_fields()) == []


def test_validate_fields_unknown_topic():
    assert validate_fields("no.such.topic", {}) \
        == ["unknown topic 'no.such.topic'"]


def test_validate_fields_missing_required():
    fields = _complete_fields()
    del fields["latency"]
    problems = validate_fields(IO_COMPLETE, fields)
    assert problems == ["missing required field 'latency'"]


def test_validate_fields_undeclared_key():
    problems = validate_fields(IO_COMPLETE,
                               _complete_fields(latency_ms=1.0))
    assert problems == ["undeclared field 'latency_ms'"]


def test_validate_fields_type_mismatch():
    problems = validate_fields(IO_COMPLETE,
                               _complete_fields(latency="slow"))
    assert len(problems) == 1 and "'latency'" in problems[0]


def test_nullable_marker_admits_none_only_on_nullable_fields():
    verdict = {"req": 1, "op": "read", "offset": 0, "size": 1, "pid": 2,
               "predictor": "p", "accept": True, "probe": False,
               "shadow": False, "deadline": None, "predicted_wait": None,
               "predicted_service": 10.0}
    assert validate_fields(VERDICT, verdict) == []
    assert validate_fields(VERDICT, dict(verdict, predictor=None))


def test_bool_is_not_an_int():
    problems = validate_fields(IO_COMPLETE, _complete_fields(req=True))
    assert len(problems) == 1 and "'req'" in problems[0]


# -- recorder enforcement ----------------------------------------------------

def test_validating_recorder_accepts_clean_events():
    recorder = TraceRecorder(validate=True)
    recorder.record(TraceEvent(1.0, IO_COMPLETE, _complete_fields()))
    assert recorder.count == 1


def test_validating_recorder_raises_on_drift():
    recorder = TraceRecorder(validate=True)
    with pytest.raises(SchemaViolation, match="latency_ms"):
        recorder.record(TraceEvent(
            1.0, IO_COMPLETE, _complete_fields(latency_ms=1.0)))


def test_validating_recorder_raises_on_unknown_topic():
    recorder = TraceRecorder(validate=True)
    with pytest.raises(SchemaViolation, match="no.such.topic"):
        recorder.record(TraceEvent(1.0, "no.such.topic", {}))


def test_default_recorder_does_not_validate():
    recorder = TraceRecorder()
    recorder.record(TraceEvent(1.0, "no.such.topic", {"x": 1}))
    assert recorder.count == 1


def test_validation_does_not_change_the_trace_digest():
    events = [TraceEvent(float(i), IO_COMPLETE,
                         _complete_fields(req=i, latency=10.0 * i))
              for i in range(1, 4)]
    plain, checked = TraceRecorder(), TraceRecorder(validate=True)
    for ev in events:
        plain.record(ev)
        checked.record(ev)
    assert plain.trace_digest() == checked.trace_digest()


def test_fig3_scenario_runs_clean_under_validation():
    from repro.experiments.registry import get_scenario
    from repro.sim import Simulator
    with tracing(TraceRecorder(validate=True)) as recorder:
        sim = Simulator(seed=7)
        get_scenario("fig3")(sim)
        sim.run()
    assert recorder.count > 0


# -- auto-generated markdown reference ---------------------------------------
def test_render_markdown_covers_every_topic():
    from repro.obs.schema import render_markdown
    table = render_markdown()
    lines = table.splitlines()
    assert lines[0].startswith("| topic |")
    assert len(lines) == 2 + len(SCHEMAS)  # header + rule + one row/topic
    for topic, schema in SCHEMAS.items():
        assert f"| `{topic}` |" in table
        for field, type_name in schema.required.items():
            assert f"`{field}:{type_name}`" in table


def test_design_md_schema_table_is_current():
    """The table checked into DESIGN.md §8 must match the registry."""
    import pathlib

    from repro.obs.schema import render_markdown
    design = pathlib.Path(__file__).resolve().parent.parent / "DESIGN.md"
    assert render_markdown() in design.read_text()


def test_schema_cli_markdown_and_listing(capsys):
    from repro.obs.__main__ import main
    from repro.obs.schema import render_markdown
    assert main(["schema", "--markdown"]) == 0
    assert capsys.readouterr().out.strip() == render_markdown()
    assert main(["schema"]) == 0
    listing = capsys.readouterr().out
    assert all(topic in listing for topic in SCHEMAS)

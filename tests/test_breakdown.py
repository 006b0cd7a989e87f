"""Tests of the latency-breakdown reducer and the obs/experiments CLIs."""

from repro._units import MS
from repro.metrics import LatencyBreakdown
from repro.obs.bus import TraceRecorder
from repro.obs.events import (IO_SUBMIT, SPAN_OP, SPAN_REQUEST, TraceEvent)
from repro.sim import Simulator


def _span(topic, total, stages, t=0.0):
    return TraceEvent(t, topic, {"total": total, "stages": stages})


def test_from_events_keeps_only_spans():
    events = [
        _span(SPAN_REQUEST, 100.0, {"scheduler-queue": 40.0,
                                    "device-service": 60.0}),
        TraceEvent(0.0, IO_SUBMIT, {"req": 1}),
        _span(SPAN_OP, 900.0, {"network-hop": 600.0, "server": 300.0}),
    ]
    bd = LatencyBreakdown.from_events(events)
    assert bd.events == 2
    assert bd.totals["request"] == [100.0]
    assert bd.totals["op"] == [900.0]
    assert set(bd.stage_samples) == {"scheduler-queue", "device-service",
                                     "network-hop", "server"}


def test_rows_are_in_pipeline_order_with_percentiles():
    bd = LatencyBreakdown()
    for us in (1000.0, 2000.0, 3000.0):
        bd.add("request", us, {"device-service": us - 100.0,
                               "scheduler-queue": 100.0})
    bd.add("op", 500.0, {"zz-custom": 500.0})
    rows = bd.rows()
    assert [r[0] for r in rows] == ["scheduler-queue", "device-service",
                                    "zz-custom"]  # known order, then name
    stage, count, p50, p95, p99, total = rows[1]
    assert count == 3
    assert p50 == 1900.0 / MS
    assert total == (900.0 + 1900.0 + 2900.0) / MS


def test_from_events_empty_list():
    bd = LatencyBreakdown.from_events([])
    assert bd.events == 0
    assert "no span events" in bd.render()


def test_render_empty_and_populated():
    assert "no span events" in LatencyBreakdown().render()
    bd = LatencyBreakdown()
    bd.add("request", 2000.0, {"device-service": 2000.0})
    out = bd.render()
    assert "Per-stage latency attribution" in out
    assert "device-service" in out
    assert "p99ms" in out
    assert "request spans: n=1" in out


def test_obs_summarize_cli(tmp_path, capsys):
    from repro.obs.__main__ import main
    rec = TraceRecorder()
    sim = Simulator(seed=3, recorder=rec)
    sim.bus.record(SPAN_REQUEST, {"total": 1500.0,
                                  "stages": {"device-service": 1500.0}})
    sim.bus.record(IO_SUBMIT, {"req": 0})
    path = tmp_path / "t.jsonl"
    rec.write_jsonl(path)

    assert main(["summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert "device-service" in out
    assert "2 events across 2 topics" in out
    assert "span.request" in out


def test_experiments_trace_flag(tmp_path, capsys):
    from repro.experiments.__main__ import main
    trace_path = tmp_path / "fig5.jsonl"
    assert main(["fig5", "--seed", "3", "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "Per-stage latency attribution" in out
    assert "p95ms" in out
    assert "digest" in out
    assert trace_path.exists()
    assert trace_path.read_text().count("\n") > 0


def test_obs_summarize_top_bounds_topic_table(tmp_path, capsys):
    from repro.obs.__main__ import main
    rec = TraceRecorder()
    sim = Simulator(seed=3, recorder=rec)
    for _ in range(3):
        sim.bus.record(IO_SUBMIT, {"req": 0})
    sim.bus.record(SPAN_REQUEST, {"total": 10.0,
                                  "stages": {"device-service": 10.0}})
    path = tmp_path / "t.jsonl"
    rec.write_jsonl(path)

    assert main(["summarize", str(path), "--top", "1"]) == 0
    out = capsys.readouterr().out
    assert "(top 1 by count)" in out
    assert "io.submit" in out          # the most frequent topic survives
    assert "  span.request" not in out  # the other is cut from the table


def test_obs_summarize_rejects_negative_top(tmp_path, capsys):
    from repro.obs.__main__ import main
    rec = TraceRecorder()
    sim = Simulator(seed=3, recorder=rec)
    sim.bus.record(IO_SUBMIT, {"req": 0})
    path = tmp_path / "t.jsonl"
    rec.write_jsonl(path)

    assert main(["summarize", str(path), "--top", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --top must be >= 0, got -1\n"


def test_obs_summarize_missing_file_friendly_error(tmp_path, capsys):
    from repro.obs.__main__ import main
    assert main(["summarize", str(tmp_path / "absent.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "absent.jsonl" in err


def test_obs_summarize_empty_file_friendly_error(tmp_path, capsys):
    from repro.obs.__main__ import main
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["summarize", str(empty)]) == 1
    assert "contains no events" in capsys.readouterr().err


def test_experiments_metrics_flag(tmp_path, capsys):
    import json
    from repro.experiments.__main__ import main
    path = tmp_path / "writes-metrics.json"
    assert main(["writes", "--seed", "3", "--metrics", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[metrics:" in out
    snapshot = json.loads(path.read_text())
    assert set(snapshot) == {"counters", "gauges", "histograms", "series"}
    assert any(name.startswith("events.") for name in snapshot["counters"])


def test_experiments_paranoid_flag(capsys):
    from repro.experiments.__main__ import main
    assert main(["writes", "--seed", "3", "--paranoid"]) == 0
    out = capsys.readouterr().out
    # paranoid alone records nothing, so no breakdown table is printed.
    assert "Per-stage latency attribution" not in out


def test_single_sample_percentiles_collapse():
    bd = LatencyBreakdown()
    bd.add("op", 7.5 * MS, {"server": 7.5 * MS})
    ((stage, n, p50, p95, p99, total),) = bd.rows()
    assert (stage, n) == ("server", 1)
    assert p50 == p95 == p99 == total == 7.5


def test_zero_length_stages_still_count_as_samples():
    """A stage the request skipped (0 µs) is a real sample: it must pull
    the stage's percentiles down, not vanish from the denominator."""
    bd = LatencyBreakdown()
    bd.add("request", 10.0, {"scheduler-queue": 0.0,
                             "device-service": 10.0})
    bd.add("request", 20.0, {"scheduler-queue": 20.0})
    rows = {row[0]: row for row in bd.rows()}
    assert rows["scheduler-queue"][1] == 2
    assert rows["scheduler-queue"][2] == 10.0 / MS  # p50 of 0 and 20 µs

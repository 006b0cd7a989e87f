"""Tests of the TraceBus: recorders, JSONL, ambient defaults."""

import pytest

from repro.obs.bus import (NullRecorder, TraceBus, TraceRecorder,
                           default_paranoid, default_recorder,
                           install_tracing, read_jsonl, reset_tracing,
                           tracing)
from repro.obs.events import IO_COMPLETE, IO_SUBMIT, TraceEvent
from repro.sim import Simulator


# -- recorders --------------------------------------------------------------
def test_null_recorder_is_the_default(sim):
    assert isinstance(sim.bus.recorder, NullRecorder)
    assert sim.bus.recorder.active is False
    assert sim.bus.recording is False


def test_trace_recorder_captures_events():
    rec = TraceRecorder()
    sim = Simulator(seed=1, recorder=rec)
    sim.schedule(5.0, lambda: sim.bus.record(IO_SUBMIT, {"req": 1}))
    sim.run()
    assert rec.count == 1
    (ev,) = rec.events
    assert ev.topic == IO_SUBMIT
    assert ev.time == 5.0
    assert ev.fields == {"req": 1}
    assert rec.by_topic(IO_SUBMIT) == [ev]
    assert rec.topic_counts() == {IO_SUBMIT: 1}


def test_trace_digest_tracks_content():
    rec_a, rec_b = TraceRecorder(), TraceRecorder()
    for rec, req in ((rec_a, 1), (rec_b, 2)):
        sim = Simulator(seed=1, recorder=rec)
        sim.bus.record(IO_SUBMIT, {"req": req})
    assert rec_a.trace_digest() != rec_b.trace_digest()


def test_jsonl_round_trip(tmp_path):
    rec = TraceRecorder()
    sim = Simulator(seed=1, recorder=rec)
    sim.bus.record(IO_SUBMIT, {"req": 1, "offset": 4096})
    sim.schedule(3.5, lambda: sim.bus.record(IO_COMPLETE,
                                             {"req": 1, "latency": 3.5}))
    sim.run()
    path = tmp_path / "trace.jsonl"
    assert rec.write_jsonl(path) == 2
    back = read_jsonl(path)
    assert [ev.to_json() for ev in back] == \
        [ev.to_json() for ev in rec.events]


def test_trace_event_dict_round_trip():
    ev = TraceEvent(1.5, IO_SUBMIT, {"req": 3, "pid": 7})
    back = TraceEvent.from_dict(ev.to_dict())
    assert (back.time, back.topic, back.fields) == \
        (ev.time, ev.topic, ev.fields)


def test_jsonl_round_trip_with_every_optional_field(tmp_path):
    """Events exercising the full field palette survive export/import:
    None (a probe verdict's deadline), bools, negative ints, floats,
    strings, and the nested ``stages`` mapping of span events."""
    from repro.obs.events import RPC_SEND, SPAN_REQUEST, VERDICT
    rec = TraceRecorder()
    sim = Simulator(seed=1, recorder=rec)
    sim.bus.record(VERDICT, {
        "req": 3, "op": "read", "offset": 4096, "size": 4096, "pid": 101,
        "predictor": "mittcfq", "accept": True, "probe": False,
        "shadow": False, "deadline": None, "predicted_wait": 120.5,
        "predicted_service": 80.0, "device": "n0", "dev_kind": "disk",
        "sched": "cfq"})
    sim.bus.record(RPC_SEND, {"src": -1, "dst": 2, "latency": 310.25})
    sim.bus.record(SPAN_REQUEST, {
        "req": 3, "total": 1500.0,
        "stages": {"scheduler-queue": 500.0, "device-service": 1000.0}})
    path = tmp_path / "full.jsonl"
    rec.write_jsonl(path)
    back = read_jsonl(path)
    assert [(ev.time, ev.topic, ev.fields) for ev in back] == \
        [(ev.time, ev.topic, ev.fields) for ev in rec.events]


def test_read_jsonl_rejects_truncated_line(tmp_path):
    from repro.obs.bus import TraceFormatError
    path = tmp_path / "trunc.jsonl"
    path.write_text('{"t":0.0,"topic":"io.submit","req":1}\n{"t":1.0,"to')
    with pytest.raises(TraceFormatError, match="trunc.jsonl:2"):
        read_jsonl(path)


def test_read_jsonl_rejects_non_event_json(tmp_path):
    from repro.obs.bus import TraceFormatError
    path = tmp_path / "other.jsonl"
    path.write_text('{"not": "an event"}\n')
    with pytest.raises(TraceFormatError, match="other.jsonl:1"):
        read_jsonl(path)


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text('{"t":0.0,"topic":"io.submit","req":1}\n\n')
    assert len(read_jsonl(path)) == 1


# -- ambient tracing defaults -----------------------------------------------
def test_tracing_context_installs_and_resets():
    rec = TraceRecorder()
    with tracing(rec, paranoid=True) as got:
        assert got is rec
        assert default_recorder() is rec
        assert default_paranoid() is True
        sim = Simulator(seed=3)
        assert sim.bus.recorder is rec
        assert sim.sanitizer is not None
    assert default_recorder() is None
    assert default_paranoid() is False
    assert isinstance(Simulator(seed=3).bus.recorder, NullRecorder)


def test_install_tracing_reset_on_exception():
    rec = TraceRecorder()
    install_tracing(rec)
    try:
        assert Simulator(seed=3).bus.recorder is rec
    finally:
        reset_tracing()
    assert default_recorder() is None


def test_explicit_recorder_overrides_ambient():
    ambient, explicit = TraceRecorder(), TraceRecorder()
    with tracing(ambient):
        sim = Simulator(seed=3, recorder=explicit)
        assert sim.bus.recorder is explicit


def test_paranoid_trace_feeds_sanitizer_hash():
    """Recorded events must change the sanitizer hash (and only then)."""

    def run(record):
        sim = Simulator(seed=5, paranoid=True, recorder=TraceRecorder())
        if record:
            sim.bus.record(IO_SUBMIT, {"req": 1})
        sim.schedule(1.0, lambda: None)
        sim.run()
        return sim.trace_hash()

    assert run(True) != run(False)
    assert run(True) == run(True)


def test_untraced_paranoid_hash_ignores_recorder_absence():
    """Without a recorder the bus records nothing, so the sanitizer hash
    is the pure event-loop hash."""

    def run():
        sim = Simulator(seed=5, paranoid=True)
        sim.schedule(1.0, lambda: None)
        sim.run()
        return sim.trace_hash()

    assert run() == run()


# -- streaming + gzip traces -------------------------------------------------
def _two_event_recorder():
    rec = TraceRecorder()
    sim = Simulator(seed=1, recorder=rec)
    sim.bus.record(IO_SUBMIT, {"req": 1, "offset": 4096})
    sim.schedule(3.5, lambda: sim.bus.record(IO_COMPLETE,
                                             {"req": 1, "latency": 3.5}))
    sim.run()
    return rec


def test_iter_jsonl_streams_lazily(tmp_path):
    from repro.obs.bus import iter_jsonl
    rec = _two_event_recorder()
    path = tmp_path / "trace.jsonl"
    rec.write_jsonl(path)
    it = iter_jsonl(path)
    first = next(it)
    assert first.topic == IO_SUBMIT
    assert [ev.topic for ev in it] == [IO_COMPLETE]


def test_iter_jsonl_error_carries_line_number(tmp_path):
    from repro.obs.bus import TraceFormatError, iter_jsonl
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t":0.0,"topic":"io.submit","req":1}\nnot json\n')
    it = iter_jsonl(path)
    next(it)
    with pytest.raises(TraceFormatError, match="bad.jsonl:2"):
        next(it)


def test_gzip_jsonl_round_trip(tmp_path):
    rec = _two_event_recorder()
    path = tmp_path / "trace.jsonl.gz"
    assert rec.write_jsonl(path) == 2
    import gzip
    with gzip.open(path, "rt") as fh:  # genuinely gzip on disk
        assert fh.readline().startswith('{"t":')
    back = read_jsonl(path)
    assert [ev.to_json() for ev in back] == \
        [ev.to_json() for ev in rec.events]


def test_gzip_export_is_byte_stable(tmp_path):
    """mtime=0 in the gzip header: two exports of the same trace are
    byte-identical (same-seed .gz artifacts can be cmp'd in CI)."""
    rec = _two_event_recorder()
    path_a = tmp_path / "a.jsonl.gz"
    path_b = tmp_path / "b.jsonl.gz"
    rec.write_jsonl(path_a)
    rec.write_jsonl(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_gzip_trace_error_contract_matches_plain(tmp_path):
    import gzip
    from repro.obs.bus import TraceFormatError
    path = tmp_path / "bad.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        fh.write('{"t":0.0,"topic":"io.submit","req":1}\n{"nope":1}\n')
    with pytest.raises(TraceFormatError, match="bad.jsonl.gz:2"):
        read_jsonl(path)


def test_open_trace_plain_passthrough(tmp_path):
    from repro.obs.bus import open_trace
    path = tmp_path / "plain.txt"
    with open_trace(path, "w") as fh:
        fh.write("hello\n")
    assert path.read_bytes() == b"hello\n"
    with open_trace(path) as fh:
        assert fh.read() == "hello\n"

"""Tests of the prediction-accuracy observatory (obs/accuracy)."""

import pytest

from repro.obs.accuracy import (CELLS, FALSE_ACCEPT, FALSE_REJECT,
                                TRUE_ACCEPT, TRUE_REJECT, AccuracyJoiner)
from repro.obs.events import (IO_CANCEL, IO_COMPLETE, LATE_REJECT, VERDICT,
                              TraceEvent)

DEADLINE = 100.0


def verdict(t, req, accept, deadline=DEADLINE, wait=30.0, service=20.0,
            shadow=True, probe=False, dev="n0"):
    return TraceEvent(t, VERDICT, {
        "req": req, "op": "read", "offset": 0, "size": 4096, "pid": 1,
        "predictor": "mittcfq", "accept": accept, "probe": probe,
        "shadow": shadow, "deadline": deadline, "predicted_wait": wait,
        "predicted_service": service, "device": dev, "dev_kind": "disk",
        "sched": "cfq"})


def complete(t, req, dev="n0"):
    return TraceEvent(t, IO_COMPLETE, {"req": req, "dev": dev,
                                       "latency": t})


def cancel(t, req, dev="n0"):
    return TraceEvent(t, IO_CANCEL, {"req": req, "dev": dev})


def late_reject(t, req):
    return TraceEvent(t, LATE_REJECT, {
        "req": req, "op": "read", "offset": 0, "size": 4096, "pid": 1,
        "predictor": "mittcfq"})


# -- the 2x2 classification --------------------------------------------------
def test_planted_confusion_counts_are_exact():
    """Two planted decisions per cell; classification is actual vs SLO."""
    events = [
        # true accepts: admitted, completed within deadline.
        verdict(0.0, 1, True), complete(50.0, 1),
        verdict(0.0, 2, True), complete(99.0, 2),
        # false accepts: admitted, completed past deadline.
        verdict(0.0, 3, True), complete(101.0, 3),
        verdict(0.0, 4, True), complete(400.0, 4),
        # true rejects (shadow: the IO still ran, and indeed missed).
        verdict(0.0, 5, False), complete(250.0, 5),
        verdict(0.0, 6, False), complete(150.0, 6),
        # false rejects (shadow: the IO ran, and would have fit).
        verdict(0.0, 7, False), complete(40.0, 7),
        verdict(0.0, 8, False), complete(100.0, 8),  # boundary: <= fits
    ]
    joiner = AccuracyJoiner.from_events(events)
    assert joiner.graded == 8
    assert joiner.confusion() == {TRUE_ACCEPT: 2, FALSE_ACCEPT: 2,
                                  TRUE_REJECT: 2, FALSE_REJECT: 2}
    assert joiner.unresolved == 0
    assert joiner.unmatched_completions == 0


def test_signed_error_is_actual_minus_predicted():
    events = [verdict(10.0, 1, True, wait=30.0, service=20.0),
              complete(90.0, 1)]
    joiner = AccuracyJoiner.from_events(events)
    (record,) = joiner.records
    assert record.predicted == 50.0
    assert record.actual == 80.0  # verdict at t=10, completion at t=90
    assert record.error == 30.0   # optimistic: actual exceeded predicted
    assert record.group == ("disk", "cfq", "n0")


# -- joiner edge cases -------------------------------------------------------
def test_completion_without_verdict_is_counted_not_graded():
    joiner = AccuracyJoiner.from_events([complete(10.0, 99)])
    assert joiner.graded == 0
    assert joiner.unmatched_completions == 1


def test_cancel_after_verdict_is_a_late_cancel():
    events = [verdict(0.0, 1, True), cancel(5.0, 1)]
    joiner = AccuracyJoiner.from_events(events)
    assert joiner.graded == 0
    assert joiner.late_cancels == 1
    # The cancelled request's id is free again: no stale pending state.
    assert joiner.unresolved == 0


def test_late_reject_turns_a_pending_accept_into_a_reject():
    """MittCFQ's shadow bump-back: admitted, then EBUSY'd in the queue,
    and the IO (still run) missed its deadline — a true reject."""
    events = [verdict(0.0, 1, True), late_reject(5.0, 1),
              complete(150.0, 1)]
    joiner = AccuracyJoiner.from_events(events)
    (record,) = joiner.records
    assert not record.accept
    assert record.cell == TRUE_REJECT
    assert joiner.late_cancels == 0


def test_late_reject_without_pending_verdict_is_ignored():
    joiner = AccuracyJoiner.from_events([late_reject(5.0, 1),
                                         complete(9.0, 1)])
    assert joiner.graded == 0
    assert joiner.unmatched_completions == 1


def test_duplicate_req_id_across_simulator_restart():
    """A fresh verdict for a still-pending id means request numbering
    restarted (one simulator per strategy line); the stale entry must be
    flushed, not mis-joined against the new run's completion."""
    events = [
        verdict(0.0, 1, True),    # run A: never resolves
        verdict(50.0, 1, True),   # run B reuses req id 1
        complete(80.0, 1),        # resolves run B's verdict only
    ]
    joiner = AccuracyJoiner.from_events(events)
    assert joiner.graded == 1
    assert joiner.unresolved == 1
    (record,) = joiner.records
    assert record.actual == 30.0  # joined to the *second* verdict


def test_probe_verdicts_are_counted_separately():
    events = [verdict(0.0, 1, True, probe=True)]
    joiner = AccuracyJoiner.from_events(events)
    assert joiner.probes == 1
    assert joiner.graded == 0
    assert joiner.unresolved == 0  # probe never becomes pending


def test_enforced_reject_is_ungradeable():
    """Without shadow mode a rejected IO never runs: no actual wait."""
    joiner = AccuracyJoiner.from_events([verdict(0.0, 1, False,
                                                 shadow=False)])
    assert joiner.unenforced_rejects == 1
    assert joiner.graded == 0


def test_finalize_flushes_pending_verdicts():
    joiner = AccuracyJoiner().consume([verdict(0.0, 1, True)])
    assert joiner.unresolved == 0
    joiner.finalize()
    assert joiner.unresolved == 1


def test_verdict_without_deadline_is_ignored():
    events = [verdict(0.0, 1, True, deadline=None), complete(50.0, 1)]
    joiner = AccuracyJoiner.from_events(events)
    assert joiner.graded == 0
    assert joiner.unmatched_completions == 1


# -- aggregation + rendering -------------------------------------------------
def test_error_rows_group_by_device_identity():
    events = [
        verdict(0.0, 1, True, dev="n0"), complete(60.0, 1, dev="n0"),
        verdict(0.0, 2, True, dev="n1"), complete(70.0, 2, dev="n1"),
        verdict(0.0, 3, True, dev="n1"), complete(90.0, 3, dev="n1"),
    ]
    rows = AccuracyJoiner.from_events(events).error_rows()
    assert [(group, n) for group, n, *_ in rows] == \
        [(("disk", "cfq", "n0"), 1), (("disk", "cfq", "n1"), 2)]
    group, n, p50, p95, p99, mae = rows[1]
    assert p50 == 30.0  # errors 20 and 40, predicted 50 each
    assert mae == 30.0


def test_render_has_error_table_and_confusion_matrix():
    events = [
        verdict(0.0, 1, True), complete(50.0, 1),
        verdict(0.0, 2, False), complete(40.0, 2),
    ]
    out = AccuracyJoiner.from_events(events).render()
    assert "Prediction error" in out
    assert "disk/cfq/n0" in out
    assert "Admission confusion (2 graded decisions" in out
    assert "false-reject 1" in out
    assert "probes=0" in out


def test_render_without_gradeable_decisions():
    out = AccuracyJoiner.from_events([]).render()
    assert "no gradeable admission decisions" in out


def test_cells_constant_covers_all_outcomes():
    assert set(CELLS) == {TRUE_ACCEPT, FALSE_ACCEPT, TRUE_REJECT,
                          FALSE_REJECT}


# -- CLI ----------------------------------------------------------------------
def test_accuracy_cli_same_seed_is_byte_identical(tmp_path, capsys):
    """The acceptance gate: two same-seed runs print identical reports
    and write identical metrics snapshots."""
    from repro.obs.__main__ import main

    snaps, outputs = [], []
    for name in ("a.json", "b.json"):
        snap = tmp_path / name
        assert main(["accuracy", "--scenario", "fig3-accuracy",
                     "--snapshot", str(snap)]) == 0
        outputs.append(capsys.readouterr().out.replace(str(snap), "SNAP"))
        snaps.append(snap.read_bytes())
    assert outputs[0] == outputs[1]
    assert snaps[0] == snaps[1]
    out = outputs[0]
    assert "Admission confusion" in out
    assert "err_p95us" in out
    assert "disk/cfq/n0" in out


def test_accuracy_cli_grades_the_named_scenario(capsys):
    """``--scenario fig3-ssd`` runs the SSD probe, not the shadow-mode
    disk slice that lives in the same module."""
    from repro.obs.__main__ import main

    assert main(["accuracy", "--scenario", "fig3-ssd"]) == 0
    out = capsys.readouterr().out
    assert "scenario=fig3-ssd" in out
    assert "disk/cfq" not in out


def test_fig9_scenario_trace_join_matches_fig9_grading(capsys):
    """fig9 grades each request at completion; ``obs accuracy --scenario
    fig9`` joins the same pass's trace.  With the shadow bump-backs on
    the trace (``predictor.late_reject``) the two agree cell for cell."""
    from repro.experiments import fig9
    from repro.obs.__main__ import main
    from repro.obs.bus import TraceRecorder
    from repro.sim import Simulator

    recorder = TraceRecorder()
    graded = fig9.accuracy_scenario(Simulator(seed=7, recorder=recorder))
    traced = AccuracyJoiner.from_events(recorder.events)
    assert len(recorder.by_topic(LATE_REJECT)) == 19
    assert graded.confusion() == {TRUE_ACCEPT: 248, FALSE_ACCEPT: 1,
                                  TRUE_REJECT: 18, FALSE_REJECT: 5}
    assert traced.confusion() == graded.confusion()
    assert [(r.req, r.cell, r.error) for r in traced.records] == \
        [(r.req, r.cell, r.error) for r in graded.records]

    assert main(["accuracy", "--scenario", "fig9"]) == 0
    out = capsys.readouterr().out
    assert "Admission confusion (272 graded decisions" in out
    assert "(false-accept 1, false-reject 5)" in out


def test_accuracy_cli_unknown_scenario(capsys):
    from repro.obs.__main__ import main
    assert main(["accuracy", "--scenario", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("interval", ["0", "-5", "nan"])
def test_accuracy_cli_rejects_non_positive_interval(capsys, interval):
    from repro.obs.__main__ import main
    assert main(["accuracy", "--interval-us", interval]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: --interval-us must be positive, got {float(interval):g}\n"

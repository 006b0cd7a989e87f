"""Tests of FP/FN accuracy accounting (§7.6), as fig9 grades it.

fig9 hands :class:`AccuracyJoiner` one :class:`PredictionRecord` per
completed shadow-mode request and reads its columns back through
``fig9._rates``: FP% is false rejects, FN% false accepts, both over the
graded decisions, and the mean |error| is over the mispredicted ones.
"""

from repro.experiments.fig9 import _rates
from repro.obs.accuracy import (FALSE_ACCEPT, FALSE_REJECT, TRUE_ACCEPT,
                                TRUE_REJECT, AccuracyJoiner,
                                PredictionRecord)
from repro.obs.events import IO_CANCEL, IO_COMPLETE, VERDICT, TraceEvent


def _record(deadline, complete, rejected, predicted=(0.0, 0.0),
            submit=0.0):
    wait, service = predicted
    return PredictionRecord(1, ("disk", "cfq", "n0"), not rejected,
                            deadline, wait + service, submit, complete)


def _graded(*records):
    joiner = AccuracyJoiner()
    for record in records:
        joiner.add(record)
    return joiner


def test_true_positive_counts_correct():
    joiner = _graded(_record(100.0, 500.0, rejected=True))
    assert joiner.confusion()[TRUE_REJECT] == 1
    fp, fn, _ = _rates(joiner)
    assert fp + fn == 0.0


def test_false_positive():
    joiner = _graded(_record(100.0, 50.0, rejected=True,
                             predicted=(200.0, 100.0)))
    (record,) = joiner.records
    assert record.cell == FALSE_REJECT
    assert _rates(joiner)[0] == 1.0
    # |error|: |50 - (0 + 200 + 100)| = 250
    assert abs(record.error) == 250.0


def test_false_negative():
    joiner = _graded(_record(100.0, 500.0, rejected=False,
                             predicted=(10.0, 20.0)))
    assert joiner.confusion()[FALSE_ACCEPT] == 1
    assert _rates(joiner)[1] == 1.0


def test_ignores_requests_without_deadline():
    events = [
        TraceEvent(0.0, VERDICT, {"req": 1, "accept": True,
                                  "probe": False, "shadow": True,
                                  "deadline": None}),
        TraceEvent(10.0, IO_COMPLETE, {"req": 1, "latency": 10.0}),
    ]
    joiner = AccuracyJoiner.from_events(events)
    assert joiner.graded == 0


def test_ignores_cancelled_requests():
    events = [
        TraceEvent(0.0, VERDICT, {"req": 1, "accept": True,
                                  "probe": False, "shadow": False,
                                  "deadline": 100.0}),
        TraceEvent(5.0, IO_CANCEL, {"req": 1}),
    ]
    joiner = AccuracyJoiner.from_events(events)
    assert joiner.graded == 0
    assert joiner.late_cancels == 1


def test_summary_and_diff_stats():
    joiner = _graded(
        _record(100.0, 50.0, True, predicted=(150.0, 50.0)),   # |err| 150
        _record(100.0, 150.0, False, predicted=(10.0, 20.0)),  # |err| 120
        _record(100.0, 80.0, False))                           # correct
    assert joiner.graded == 3
    assert joiner.confusion() == {TRUE_ACCEPT: 1, FALSE_ACCEPT: 1,
                                  TRUE_REJECT: 0, FALSE_REJECT: 1}
    fp, fn, mean_error = _rates(joiner)
    assert fp == 1 / 3
    assert fn == 1 / 3
    # The correct decision's |error| (80) is left out of the mean.
    assert mean_error == 135.0


def test_rates_zero_when_empty():
    joiner = AccuracyJoiner()
    assert joiner.graded == 0
    assert _rates(joiner) == (0.0, 0.0, 0.0)

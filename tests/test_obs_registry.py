"""Tests of the metrics registry (obs/registry)."""

import pytest

from repro.obs.events import (CACHE_HIT, IO_CANCEL, IO_COMPLETE,
                              IO_SERVICE_START, IO_SUBMIT, OS_EBUSY,
                              VERDICT, TraceEvent)
from repro.obs.registry import (DEFAULT_LATENCY_BUCKETS_US, Histogram,
                                MetricsRegistry)


def ev(t, topic, **fields):
    return TraceEvent(t, topic, fields)


def io_lifecycle(t0, req, dev="n0", service_at=None, done_at=None,
                 latency=None):
    """submit -> service_start -> complete for one request."""
    service_at = t0 + 10.0 if service_at is None else service_at
    done_at = t0 + 50.0 if done_at is None else done_at
    return [
        ev(t0, IO_SUBMIT, req=req, dev=dev),
        ev(service_at, IO_SERVICE_START, req=req, device=dev),
        ev(done_at, IO_COMPLETE, req=req, device=dev,
           latency=done_at - t0 if latency is None else latency),
    ]


# -- containers ---------------------------------------------------------------
def test_histogram_bucketing_including_overflow():
    h = Histogram(bounds=(10.0, 100.0))
    for value in (5.0, 10.0, 11.0, 100.0, 5000.0):
        h.observe(value)
    # bucket 0: <=10 (5.0, 10.0); bucket 1: <=100 (11.0, 100.0); overflow.
    assert h.counts == [2, 2, 1]
    assert h.count == 5
    assert h.total == 5126.0


def test_counters_gauges_and_latency_histogram_from_fold():
    reg = MetricsRegistry()
    reg.consume(io_lifecycle(0.0, req=1) + io_lifecycle(100.0, req=2))
    snap = reg.snapshot()
    assert snap["counters"]["events.io.submit"] == 2
    assert snap["counters"]["events.io.complete"] == 2
    # Both IOs completed: depth and in-service are back to zero.
    assert snap["gauges"]["outstanding.n0"] == 0
    assert snap["gauges"]["in_service.n0"] == 0
    hist = snap["histograms"]["io_latency_us.n0"]
    assert hist["count"] == 2
    assert hist["sum"] == 100.0
    assert hist["bounds"] == list(DEFAULT_LATENCY_BUCKETS_US)


def test_dev_label_from_either_field_name():
    """Scheduler events say ``dev``, device events say ``device``."""
    reg = MetricsRegistry()
    reg.fold(ev(0.0, IO_SUBMIT, req=1, dev="nX"))
    reg.fold(ev(1.0, IO_COMPLETE, req=1, device="nX", latency=1.0))
    assert reg.snapshot()["gauges"]["outstanding.nX"] == 0


def test_cancel_decrements_outstanding():
    reg = MetricsRegistry()
    reg.fold(ev(0.0, IO_SUBMIT, req=1, dev="n0"))
    reg.fold(ev(5.0, IO_CANCEL, req=1, dev="n0"))
    assert reg.snapshot()["gauges"]["outstanding.n0"] == 0
    assert reg.snapshot()["counters"]["events.io.cancel"] == 1


def test_verdict_and_misc_counters():
    reg = MetricsRegistry()
    reg.consume([
        ev(0.0, VERDICT, req=1, accept=True, probe=False),
        ev(0.0, VERDICT, req=2, accept=False, probe=False),
        ev(0.0, VERDICT, req=3, accept=False, probe=True),
        ev(0.0, OS_EBUSY, req=2),
        ev(0.0, CACHE_HIT, req=4),
    ])
    counters = reg.snapshot()["counters"]
    assert counters["verdicts.accept"] == 1
    assert counters["verdicts.reject"] == 1
    assert counters["verdicts.probe"] == 1
    assert counters["os.ebusy_returned"] == 1
    assert counters["cache.hits"] == 1


# -- snapshots ----------------------------------------------------------------
def test_to_json_is_byte_stable_across_identical_folds():
    events = io_lifecycle(0.0, req=1) + io_lifecycle(30.0, req=2, dev="n1")
    a = MetricsRegistry().consume(events).to_json()
    b = MetricsRegistry().consume(list(events)).to_json()
    assert a == b
    assert '"counters"' in a


# -- time-series sampling -----------------------------------------------------
@pytest.mark.parametrize("interval", [0.0, -100.0, float("nan")])
def test_sample_interval_must_be_positive(interval):
    with pytest.raises(ValueError, match="sample_interval_us"):
        MetricsRegistry(sample_interval_us=interval)


def test_trailing_grid_points_are_sampled_up_to_the_run_end():
    """``until_us`` samples the grid points between the last event and
    the end of the run."""
    # One IO busy from t=10 to t=60: 50% utilization of the first tick.
    events = io_lifecycle(10.0, req=1, service_at=10.0, done_at=60.0)
    reg = MetricsRegistry(sample_interval_us=100.0)
    assert reg.consume(events).snapshot()["series"] == {}
    reg = MetricsRegistry(sample_interval_us=100.0)
    series = reg.consume(events, until_us=300.0).snapshot()["series"]
    assert series["util.n0"]["interval_us"] == 100.0
    assert series["util.n0"]["samples"] == [[100.0, 0.5], [200.0, 0.0],
                                            [300.0, 0.0]]
    assert series["qdepth.n0"]["samples"] == [[100.0, 0], [200.0, 0],
                                              [300.0, 0]]


def test_posthoc_grid_sampling_off_event_timestamps():
    reg = MetricsRegistry(sample_interval_us=100.0)
    reg.consume(io_lifecycle(10.0, req=1, service_at=10.0, done_at=60.0)
                + io_lifecycle(150.0, req=2, service_at=150.0,
                               done_at=220.0))
    samples = reg.snapshot()["series"]["util.n0"]["samples"]
    # Ticks fire when event time crosses each grid point: the t=100 and
    # t=200 ticks observed 50 µs of busy each.
    assert samples[0] == [100.0, 0.5]
    assert samples[1] == [200.0, 0.5]


def test_summary_line_counts_events():
    reg = MetricsRegistry().consume(io_lifecycle(0.0, req=1))
    line = reg.summary_line()
    assert line.startswith("3 events")
    assert "counters" in line

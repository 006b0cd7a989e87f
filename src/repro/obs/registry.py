"""Metrics registry: counters, gauges, histograms, sim-time series.

The trace plane answers "what happened, in order"; the registry answers
"how much, how busy, how deep" — the per-device utilization and queue
depth primitives the latency-model recalibration work needs (cf. the
model-error / utilization observability of *Performance Modeling of Data
Storage Systems using Generative Models* and *Serifos*, PAPERS.md).

A :class:`MetricsRegistry` is fed **purely by the event stream**: feed it
:class:`~repro.obs.events.TraceEvent` objects one at a time
(:meth:`~MetricsRegistry.fold`), in a batch over a finished trace
(:meth:`~MetricsRegistry.consume` — what the experiments CLI's
``--metrics`` does post-hoc), or live during a run by installing a
:class:`MeteredRecorder` as the simulator's trace recorder (what
``python -m repro.obs accuracy`` does).  From the lifecycle topics it
derives

* per-topic event **counters** (plus verdict accept/reject/probe and
  cache hit/miss splits),
* per-device **gauges** — outstanding IOs (submitted, not yet completed
  or cancelled) and in-service counts,
* per-device fixed-bucket **histograms** of completed-IO latency, and
* per-device **time series** of utilization (busy fraction of each
  sample interval) and queue depth, sampled on a fixed sim-time grid.

Live sampling rides the simulator itself: :meth:`~MetricsRegistry.arm`
pre-schedules one tick per ``sample_interval_us`` via ``sim.schedule_at``.
The ticks are pure observers — they read registry state, draw no RNG, and
mutate nothing in the simulation — so behaviour is unchanged; they do
occupy heap slots, which shifts the paranoid sanitizer's executed-event
hash relative to an unmetered run (documented in DESIGN.md §8).  Post-hoc
folding samples on the same grid, driven by event timestamps instead.

Determinism: every container is keyed by name and serialized with sorted
keys, values derive only from sim-time-stamped events, and sampling grids
are fixed — so two same-seed runs produce **byte-identical**
:meth:`~MetricsRegistry.to_json` snapshots.
"""

import json
from bisect import bisect_left

from repro.obs.bus import TraceRecorder
from repro.obs.events import (CACHE_HIT, CACHE_MISS, IO_CANCEL, IO_COMPLETE,
                              IO_SERVICE_START, IO_SUBMIT, OS_EBUSY,
                              RPC_DROP, VERDICT)

#: Default latency histogram bucket upper bounds (µs): spans a cache hit
#: (~tens of µs) to a multi-second stall; the last bucket is open-ended.
DEFAULT_LATENCY_BUCKETS_US = (
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0,
    50_000.0, 100_000.0, 250_000.0, 1_000_000.0,
)


class Counter:
    """A monotone event counter."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n=1):
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` holds values ``<= bounds[i]``
    (first bucket from -inf), with one extra open-ended overflow bucket."""

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds=DEFAULT_LATENCY_BUCKETS_US):
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value):
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value


class TimeSeries:
    """(sim time, value) samples on the registry's fixed sampling grid."""

    __slots__ = ("samples",)

    def __init__(self):
        self.samples = []

    def add(self, time, value):
        self.samples.append((time, value))


def _dev(fields):
    """Device label of a lifecycle event (scheduler events say ``dev``,
    device events say ``device``)."""
    return fields.get("dev") or fields.get("device") or "?"


class MetricsRegistry:
    """Named metric containers plus the event-fold that feeds them.

    ``sample_interval_us`` enables the utilization / queue-depth time
    series; leave it ``None`` (the default) for counters-only folding
    (e.g. multi-simulator experiment traces, where sim clocks restart
    per strategy line and a shared time grid would be meaningless).
    """

    def __init__(self, sample_interval_us=None):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._series = {}
        self._interval = sample_interval_us
        self._armed = False
        self._next_tick = sample_interval_us
        #: Per-device fold state (dict insertion order is arrival order;
        #: all reporting iterates sorted(name) for determinism).
        self._outstanding = {}   # dev -> submitted - completed - cancelled
        self._in_service = {}    # dev -> count currently in device service
        self._busy_accum = {}    # dev -> busy µs since the last sample
        self._busy_open = {}     # dev -> service-busy period start (or None)

    # -- containers --------------------------------------------------------
    def counter(self, name):
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name):
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name, bounds=DEFAULT_LATENCY_BUCKETS_US):
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(bounds)
        return metric

    def series(self, name):
        metric = self._series.get(name)
        if metric is None:
            metric = self._series[name] = TimeSeries()
        return metric

    # -- live sampling ------------------------------------------------------
    def arm(self, sim, horizon_us):
        """Pre-schedule one sampling tick per interval up to ``horizon_us``.

        Ticks beyond the scenario's own run limit simply never execute.
        Call before running the scenario; requires ``sample_interval_us``.
        """
        if self._interval is None:
            raise ValueError("MetricsRegistry needs sample_interval_us "
                             "to arm time-series sampling")
        self._armed = True
        ticks = int(horizon_us // self._interval)
        for k in range(1, ticks + 1):
            at = k * self._interval  # fixed grid: model constants only
            sim.schedule_at(at, self._sample, at)
        return ticks

    def _sample(self, now):
        """Snapshot per-device utilization + queue depth at a grid point."""
        interval = self._interval
        for dev in sorted(self._outstanding):
            busy = self._busy_accum.get(dev, 0.0)
            open_since = self._busy_open.get(dev)
            if open_since is not None:
                busy += now - open_since
                self._busy_open[dev] = now
            self._busy_accum[dev] = 0.0
            util = busy / interval
            self.series(f"util.{dev}").add(now, round(min(util, 1.0), 6))
            self.series(f"qdepth.{dev}").add(now, self._outstanding[dev])

    # -- event folding ------------------------------------------------------
    def fold(self, event):
        """Fold one trace event into the registry."""
        time = event.time
        if self._interval is not None and not self._armed:
            # Post-hoc sampling: replay the same fixed grid off event
            # timestamps (live runs sample via scheduled ticks instead).
            while time >= self._next_tick:
                self._sample(self._next_tick)
                self._next_tick += self._interval
        topic = event.topic
        fields = event.fields
        self.counter(f"events.{topic}").inc()
        if topic == IO_SUBMIT:
            dev = _dev(fields)
            depth = self._outstanding.get(dev, 0) + 1
            self._outstanding[dev] = depth
            self.gauge(f"outstanding.{dev}").set(depth)
        elif topic == IO_SERVICE_START:
            dev = _dev(fields)
            busy = self._in_service.get(dev, 0)
            if busy == 0:
                self._busy_open[dev] = time
            self._in_service[dev] = busy + 1
            self.gauge(f"in_service.{dev}").set(busy + 1)
        elif topic == IO_COMPLETE:
            dev = _dev(fields)
            self._close_io(dev, time)
            latency = fields.get("latency")
            if latency is not None:
                self.histogram(f"io_latency_us.{dev}").observe(latency)
        elif topic == IO_CANCEL:
            dev = _dev(fields)
            depth = max(self._outstanding.get(dev, 0) - 1, 0)
            self._outstanding[dev] = depth
            self.gauge(f"outstanding.{dev}").set(depth)
        elif topic == VERDICT:
            if fields.get("probe"):
                self.counter("verdicts.probe").inc()
            elif fields.get("accept"):
                self.counter("verdicts.accept").inc()
            else:
                self.counter("verdicts.reject").inc()
        elif topic == OS_EBUSY:
            self.counter("os.ebusy_returned").inc()
        elif topic == CACHE_HIT:
            self.counter("cache.hits").inc()
        elif topic == CACHE_MISS:
            self.counter("cache.misses").inc()
        elif topic == RPC_DROP:
            self.counter("rpc.dropped").inc()

    def _close_io(self, dev, time):
        """One IO left the device: update depth + busy-time accounting."""
        depth = max(self._outstanding.get(dev, 0) - 1, 0)
        self._outstanding[dev] = depth
        self.gauge(f"outstanding.{dev}").set(depth)
        busy = self._in_service.get(dev, 0)
        if busy > 0:
            busy -= 1
            self._in_service[dev] = busy
            self.gauge(f"in_service.{dev}").set(busy)
            if busy == 0:
                open_since = self._busy_open.get(dev)
                if open_since is not None:
                    self._busy_accum[dev] = (self._busy_accum.get(dev, 0.0)
                                             + time - open_since)
                self._busy_open[dev] = None

    def consume(self, events):
        """Fold a finished trace (e.g. ``recorder.events``, ``read_jsonl``)."""
        for event in events:
            self.fold(event)
        return self

    # -- snapshot -----------------------------------------------------------
    def snapshot(self):
        """Plain-dict form of every metric (stable modulo key order)."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: {"bounds": list(h.bounds), "counts": list(h.counts),
                       "count": h.count, "sum": h.total}
                for name, h in sorted(self._histograms.items())
            },
            "series": {
                name: {"interval_us": self._interval,
                       "samples": [[t, v] for t, v in s.samples]}
                for name, s in sorted(self._series.items())
            },
        }

    def to_json(self):
        """Canonical JSON snapshot: same-seed runs are byte-identical."""
        return json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":"))

    def summary_line(self):
        """One-line shape summary for CLI reports."""
        events = sum(c.value for name, c in self._counters.items()
                     if name.startswith("events."))
        return (f"{events} events -> {len(self._counters)} counters, "
                f"{len(self._gauges)} gauges, "
                f"{len(self._histograms)} histograms, "
                f"{len(self._series)} series")


class MeteredRecorder(TraceRecorder):
    """A :class:`TraceRecorder` that also folds every event into a
    :class:`MetricsRegistry` as it is recorded — the live-metrics hook:
    the registry stays a pure trace consumer, fed by the same typed
    events every other trace reader sees, just without the replay step."""

    def __init__(self, registry, keep_events=True, validate=False):
        super().__init__(keep_events=keep_events, validate=validate)
        self.registry = registry

    def record(self, event):
        super().record(event)
        self.registry.fold(event)

"""Metrics registry: counters, gauges, histograms, sim-time series.

The trace plane answers "what happened, in order"; the registry answers
"how much, how busy, how deep".  A :class:`MetricsRegistry` is a reducer
over recorded :class:`~repro.obs.events.TraceEvent` objects: fold them one
at a time (:meth:`~MetricsRegistry.fold`) or a finished trace at once
(:meth:`~MetricsRegistry.consume`, what the experiments CLI's
``--metrics`` and ``python -m repro.obs accuracy`` do after the run).  It
never touches the simulator.  From the lifecycle topics it derives

* per-topic event **counters** (plus verdict accept/reject/probe and
  cache hit/miss splits),
* per-device **gauges** — outstanding IOs (submitted, not yet completed
  or cancelled) and in-service counts,
* per-device fixed-bucket **histograms** of completed-IO latency, and
* per-device **time series** of utilization (busy fraction of each
  sample interval) and queue depth, sampled on a fixed sim-time grid.

Grid points are sampled as event timestamps cross them; ``consume(events,
until_us=sim.now)`` also samples the points left between the last event
and the end of the run.

Determinism: every container is keyed by name and serialized with sorted
keys, values derive only from sim-time-stamped events, and sampling grids
are fixed — so two same-seed runs produce **byte-identical**
:meth:`~MetricsRegistry.to_json` snapshots.
"""

import json
from bisect import bisect_left

from repro.obs.events import (CACHE_HIT, CACHE_MISS, IO_CANCEL, IO_COMPLETE,
                              IO_SERVICE_START, IO_SUBMIT, OS_EBUSY,
                              RPC_DROP, VERDICT)

#: Default latency histogram bucket upper bounds (µs): spans a cache hit
#: (~tens of µs) to a multi-second stall; the last bucket is open-ended.
DEFAULT_LATENCY_BUCKETS_US = (
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0,
    50_000.0, 100_000.0, 250_000.0, 1_000_000.0,
)


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


def _dev(fields):
    """Device label of a lifecycle event (scheduler events say ``dev``,
    device events say ``device``)."""
    return fields.get("dev") or fields.get("device") or "?"


class MetricsRegistry:
    """Named metrics plus the event-fold that feeds them.

    ``sample_interval_us`` (positive) enables the utilization /
    queue-depth time series; leave it ``None`` (the default) for
    counters-only folding (e.g. multi-simulator experiment traces, where
    sim clocks restart per strategy line and a shared time grid would be
    meaningless).
    """

    def __init__(self, sample_interval_us=None):
        if sample_interval_us is not None and not sample_interval_us > 0:
            raise ValueError(f"sample_interval_us must be positive, got "
                             f"{sample_interval_us!r}")
        self._counters = {}     # name -> count
        self._gauges = {}       # name -> last value
        self._histograms = {}   # name -> Histogram
        self._series = {}       # name -> [(sim time, value), ...]
        self._interval = sample_interval_us
        self._next_tick = sample_interval_us
        #: Per-device fold state (dict insertion order is arrival order;
        #: all reporting iterates sorted(name) for determinism).
        self._outstanding = {}   # dev -> submitted - completed - cancelled
        self._in_service = {}    # dev -> count currently in device service
        self._busy_accum = {}    # dev -> busy µs since the last sample
        self._busy_open = {}     # dev -> service-busy period start (or None)

    def _count(self, name):
        self._counters[name] = self._counters.get(name, 0) + 1

    # -- sampling -----------------------------------------------------------
    def _sample_through(self, time):
        """Sample every grid point at or before ``time`` not sampled yet."""
        while time >= self._next_tick:
            self._sample(self._next_tick)
            self._next_tick += self._interval

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
            self._series.setdefault(f"util.{dev}", []).append(
                (now, round(min(util, 1.0), 6)))
            self._series.setdefault(f"qdepth.{dev}", []).append(
                (now, self._outstanding[dev]))

    # -- event folding ------------------------------------------------------
    def fold(self, event):
        """Fold one trace event into the registry."""
        time = event.time
        if self._interval is not None:
            # A grid point at an event's own time is sampled before it.
            self._sample_through(time)
        topic = event.topic
        fields = event.fields
        self._count(f"events.{topic}")
        if topic == IO_SUBMIT:
            dev = _dev(fields)
            depth = self._outstanding.get(dev, 0) + 1
            self._outstanding[dev] = depth
            self._gauges[f"outstanding.{dev}"] = depth
        elif topic == IO_SERVICE_START:
            dev = _dev(fields)
            busy = self._in_service.get(dev, 0)
            if busy == 0:
                self._busy_open[dev] = time
            self._in_service[dev] = busy + 1
            self._gauges[f"in_service.{dev}"] = busy + 1
        elif topic == IO_COMPLETE:
            dev = _dev(fields)
            self._close_io(dev, time)
            latency = fields.get("latency")
            if latency is not None:
                name = f"io_latency_us.{dev}"
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram()
                histogram.observe(latency)
        elif topic == IO_CANCEL:
            dev = _dev(fields)
            depth = max(self._outstanding.get(dev, 0) - 1, 0)
            self._outstanding[dev] = depth
            self._gauges[f"outstanding.{dev}"] = depth
        elif topic == VERDICT:
            if fields.get("probe"):
                self._count("verdicts.probe")
            elif fields.get("accept"):
                self._count("verdicts.accept")
            else:
                self._count("verdicts.reject")
        elif topic == OS_EBUSY:
            self._count("os.ebusy_returned")
        elif topic == CACHE_HIT:
            self._count("cache.hits")
        elif topic == CACHE_MISS:
            self._count("cache.misses")
        elif topic == RPC_DROP:
            self._count("rpc.dropped")

    def _close_io(self, dev, time):
        """One IO left the device: update depth + busy-time accounting."""
        depth = max(self._outstanding.get(dev, 0) - 1, 0)
        self._outstanding[dev] = depth
        self._gauges[f"outstanding.{dev}"] = depth
        busy = self._in_service.get(dev, 0)
        if busy > 0:
            busy -= 1
            self._in_service[dev] = busy
            self._gauges[f"in_service.{dev}"] = busy
            if busy == 0:
                open_since = self._busy_open.get(dev)
                if open_since is not None:
                    self._busy_accum[dev] = (self._busy_accum.get(dev, 0.0)
                                             + time - open_since)
                self._busy_open[dev] = None

    def consume(self, events, until_us=None):
        """Fold a finished trace (e.g. ``recorder.events``, ``read_jsonl``).

        ``until_us`` is where the run ended (``sim.now``): grid points
        after the last event up to it are sampled too.
        """
        for event in events:
            self.fold(event)
        if until_us is not None and self._interval is not None:
            self._sample_through(until_us)
        return self

    # -- snapshot -----------------------------------------------------------
    def snapshot(self):
        """Plain-dict form of every metric (stable modulo key order)."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: {"bounds": list(h.bounds), "counts": list(h.counts),
                       "count": h.count, "sum": h.total}
                for name, h in sorted(self._histograms.items())
            },
            "series": {
                name: {"interval_us": self._interval,
                       "samples": [[t, v] for t, v in samples]}
                for name, samples in sorted(self._series.items())
            },
        }

    def to_json(self):
        """Canonical JSON snapshot: same-seed runs are byte-identical."""
        return json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":"))

    def summary_line(self):
        """One-line shape summary for CLI reports."""
        events = sum(count for name, count in self._counters.items()
                     if name.startswith("events."))
        return (f"{events} events -> {len(self._counters)} counters, "
                f"{len(self._gauges)} gauges, "
                f"{len(self._histograms)} histograms, "
                f"{len(self._series)} series")

"""The EC2 millisecond-dynamism model (§6).

The paper measured disk/SSD/cache latency on 20 EC2 nodes for 8 hours and
found three things our synthetic model must reproduce:

1. long tails appear from ~p97 (disk > 20 ms, SSD > 0.5 ms, cache >
   0.05 ms), stretching past 70 ms / 2 ms / 1 ms at p99+;
2. contention arrives in *sub-second bursts* with irregular inter-arrival
   times (no strong temporal locality);
3. mostly only 1-2 nodes of 20 are busy simultaneously (~25% of windows
   have exactly one busy node, ~5% two, diminishing fast).

We have no EC2 tenancy, so we synthesise per-node *noise episode schedules*
with those shape parameters: episodes arrive per node as a renewal process
with hyperexponential gaps (burstiness), last a lognormal sub-second
duration, and carry an intensity (competing-IO concurrency).  Independent
per-node schedules with a small per-node busy fraction reproduce the
diminishing busy-simultaneity of observation 3 automatically.
"""

import math

from repro._units import MS, SEC


class NoiseEpisode:
    __slots__ = ("start", "duration", "intensity")

    def __init__(self, start, duration, intensity):
        self.start = start
        self.duration = duration
        self.intensity = intensity

    def __iter__(self):
        return iter((self.start, self.duration, self.intensity))


class Ec2NoiseModel:
    """Synthetic per-node noisy-neighbour schedules with EC2-like shape."""

    #: Presets per resource: (busy_fraction, mean_duration, duration sigma,
    #: burst_prob, mean intensity).  Busy fractions chosen so ~25%/5% of
    #: time windows see exactly 1/2 of 20 nodes busy.
    PRESETS = {
        "disk": dict(busy_fraction=0.03, mean_duration_us=600 * MS,
                     sigma=0.6, burst_prob=0.35, mean_intensity=3.5),
        "ssd": dict(busy_fraction=0.02, mean_duration_us=200 * MS,
                    sigma=0.6, burst_prob=0.35, mean_intensity=2.5),
        "cache": dict(busy_fraction=0.015, mean_duration_us=300 * MS,
                      sigma=0.5, burst_prob=0.35, mean_intensity=1.5),
    }

    def __init__(self, resource="disk", busy_fraction=None,
                 mean_duration_us=None, sigma=None, burst_prob=None,
                 mean_intensity=None):
        if resource not in self.PRESETS:
            raise ValueError(f"unknown resource preset: {resource}")
        preset = dict(self.PRESETS[resource])
        if busy_fraction is not None:
            preset["busy_fraction"] = busy_fraction
        if mean_duration_us is not None:
            preset["mean_duration_us"] = mean_duration_us
        if sigma is not None:
            preset["sigma"] = sigma
        if burst_prob is not None:
            preset["burst_prob"] = burst_prob
        if mean_intensity is not None:
            preset["mean_intensity"] = mean_intensity
        self.resource = resource
        self.busy_fraction = preset["busy_fraction"]
        self.mean_duration_us = preset["mean_duration_us"]
        self.sigma = preset["sigma"]
        self.burst_prob = preset["burst_prob"]
        self.mean_intensity = preset["mean_intensity"]

    # -- episode generation -------------------------------------------------
    def mean_gap_us(self):
        """Mean idle gap between episodes implied by the busy fraction."""
        return self.mean_duration_us * (1 - self.busy_fraction) \
            / self.busy_fraction

    def episodes(self, rng, horizon_us):
        """One node's noise schedule over [0, horizon)."""
        out = []
        t = self._gap(rng) * rng.random()  # random phase
        while t < horizon_us:
            duration = self._duration(rng)
            # Competing-IO concurrency: 1 + heavy-ish exponential tail, so
            # most episodes are mild but some stack 4-6 busy neighbours
            # (the paper's 20-70 ms disk tail range at ~12 ms per 1 MB IO).
            intensity = 2 + min(5, int(rng.expovariate(
                1.0 / max(0.25, self.mean_intensity - 2.0))))
            out.append(NoiseEpisode(t, duration, intensity))
            t += duration + self._gap(rng)
        return out

    def _duration(self, rng):
        mu = math.log(self.mean_duration_us) - self.sigma ** 2 / 2
        return min(rng.lognormvariate(mu, self.sigma), 5 * SEC)

    def _gap(self, rng):
        """Hyperexponential gap: bursts (short) vs lulls (long)."""
        mean = self.mean_gap_us()
        if rng.random() < self.burst_prob:
            return rng.expovariate(1.0 / (0.15 * mean))
        return rng.expovariate(1.0 / (1.85 * mean))

    def schedules(self, rng, n_nodes, horizon_us):
        """Independent schedules for a whole cluster."""
        return [self.episodes(rng, horizon_us) for _ in range(n_nodes)]

    # -- analytical shape checks (used by fig3 and tests) -----------------------
    @staticmethod
    def busy_simultaneity(schedules, horizon_us, window_us=100 * MS):
        """P(exactly N nodes busy) over fixed windows — Figure 3g."""
        n_windows = int(horizon_us // window_us)
        counts = [0] * n_windows
        for schedule in schedules:
            for ep in schedule:
                first = int(ep.start // window_us)
                last = int((ep.start + ep.duration) // window_us)
                for w in range(first, min(last + 1, n_windows)):
                    counts[w] += 1
        max_busy = max(counts) if counts else 0
        probs = [0.0] * (max_busy + 1)
        for c in counts:
            probs[c] += 1
        return [p / n_windows for p in probs]

    @staticmethod
    def interarrivals(schedule):
        """Noise inter-arrival gaps (µs) — the Figure 3d-f distributions."""
        starts = sorted(ep.start for ep in schedule)
        return [b - a for a, b in zip(starts, starts[1:])]

"""The adaptive SLO controller: windowed feedback over tail latency.

MittOS (§5) treats the deadline as a static per-user constant.  Under a
gray failure or a load surge a static deadline has only two failure
modes: too tight (a flood of EBUSY rejections, wasted failover work) or
too loose (tails blow past the budget before anyone reacts).  QWin
(PAPERS.md: window-based queue control for tail SLOs) shows a windowed
controller over queue depth and observed percentiles can hold a tail SLO
where a static threshold cannot; this module adds the safety discipline
that keeps such a controller from flapping:

* **hysteresis bands** — the controller only acts outside a relative
  band around the target p95, so measurement noise near the setpoint
  never triggers a move;
* **minimum dwell time** — after any transition the controller holds
  still for ``dwell_windows`` observation windows, so the effective
  deadline can never change twice within one dwell window (a property
  test pins this);
* **monotonic-safe degradation** — backpressure levels move one notch at
  a time, shedding the lowest tier first, and the controller *never*
  upgrades (sheds less, or relaxes back toward the baseline) while the
  error budget is burning.

Determinism: the controller is driven purely by sim-time — observation
windows are a fixed grid pre-scheduled via ``sim.schedule_at``, every
statistic derives from deterministic per-op observations fed by the
client strategy, and no RNG stream is ever touched.  Same (seed, workload) ⇒ byte-identical
``slo.*`` trace events.
"""

from repro._units import MS
from repro.obs.events import SLO_TRANSITION, SLO_WINDOW

#: The ``mode`` every ``slo.window`` and ``slo.transition`` event carries.
MODE_ADAPTIVE = "adaptive"


def window_p95(latencies):
    """p95 of one window's latency samples (nearest-rank; None if empty).

    Nearest-rank on a sorted copy: deterministic, no interpolation, and
    the sort never reorders the caller's accumulator.
    """
    n = len(latencies)
    if n == 0:
        return None
    ordered = sorted(latencies)
    rank = max(int(0.95 * n + 0.999999) - 1, 0)  # ceil(0.95 n) - 1
    return ordered[min(rank, n - 1)]


class SloController:
    """Feedback-driven deadline + backpressure control for one strategy.

    Implements the deadline-controller protocol ``MittosStrategy``
    composes (``deadline_us`` property + ``record(was_ebusy)``),
    so wiring it in is strategy-side trivial; on top of that it takes
    per-op latency observations (:meth:`observe_op`), drives the
    degradation level of every attached
    :class:`~repro.slo_control.admission.AdmissionGuard`.

    ``floor_us``/``ceiling_us`` are the operator-set bands the adaptive
    deadline may roam inside; they default to baseline/4 and baseline×4.
    """

    def __init__(self, sim, baseline_deadline_us, floor_us=None,
                 ceiling_us=None, target_p95_us=None, window_us=250 * MS,
                 dwell_windows=2, breach_budget=0.05, hysteresis=0.25,
                 step=1.25, reject_flood=0.5, upgrade_burn=0.5,
                 min_samples=8, max_level=4, guards=(), name="slo"):
        if baseline_deadline_us is None or baseline_deadline_us <= 0:
            raise ValueError("baseline deadline must be positive")
        if step <= 1.0:
            raise ValueError("step must be > 1")
        if not 0.0 < breach_budget < 1.0:
            raise ValueError("breach budget must be in (0, 1)")
        if dwell_windows < 1:
            raise ValueError("dwell must be at least one window")
        self.sim = sim
        self.name = name
        self.baseline_deadline_us = float(baseline_deadline_us)
        self.floor_us = float(floor_us if floor_us is not None
                              else baseline_deadline_us / 4.0)
        self.ceiling_us = float(ceiling_us if ceiling_us is not None
                                else baseline_deadline_us * 4.0)
        if not self.floor_us <= self.baseline_deadline_us <= self.ceiling_us:
            raise ValueError("baseline deadline must lie inside "
                             "[floor, ceiling]")
        #: The tail SLO the error budget is charged against (defaults to
        #: the baseline deadline — the paper's p95-derived budget).
        self.target_p95_us = float(target_p95_us if target_p95_us is not None
                                   else baseline_deadline_us)
        self.window_us = float(window_us)
        self.dwell_windows = int(dwell_windows)
        self.breach_budget = float(breach_budget)
        self.hysteresis = float(hysteresis)
        self.step = float(step)
        self.reject_flood = float(reject_flood)
        self.upgrade_burn = float(upgrade_burn)
        self.min_samples = int(min_samples)
        self.max_level = int(max_level)
        self.guards = list(guards)

        #: The adaptive plant state.
        self.adaptive_deadline_us = self.baseline_deadline_us
        self.level = 0
        #: Closed-window counter and the dwell clock.
        self.windows = 0
        self._last_transition_window = None
        #: Transition log: (window, kind, deadline_us, level) tuples.
        self.transitions = []
        #: Per-window accumulators (reset at every window close).
        self._lat = []
        self._ebusy_ops = 0
        self._failed_ops = 0
        self._shed_seen = 0

    @property
    def deadline_us(self):
        """The effective MittOS deadline: the adaptive one."""
        return self.adaptive_deadline_us

    # -- observation feed --------------------------------------------------
    def record(self, was_ebusy):
        """Deadline-controller protocol hook: one op's EBUSY flag
        (``MittosStrategy`` calls this once per completed get)."""
        if was_ebusy:
            self._ebusy_ops += 1

    def observe_op(self, latency_us, failed=False):
        """One completed client op: its end-to-end latency (µs)."""
        self._lat.append(latency_us)
        if failed:
            self._failed_ops += 1

    def attach_guard(self, guard):
        """Register one per-node admission guard under this controller."""
        self.guards.append(guard)
        guard.set_level(self.level)
        return guard

    # -- the window grid ---------------------------------------------------
    def arm(self, horizon_us):
        """Pre-schedule one window close per ``window_us`` up to the
        horizon (fixed grid; ticks past the run limit never execute)."""
        ticks = int(horizon_us // self.window_us)
        for k in range(1, ticks + 1):
            at = k * self.window_us  # fixed grid: model constants only
            self.sim.schedule_at(at, self.on_window, at)
        return ticks

    def on_window(self, now):
        """Close one observation window and (maybe) make one transition."""
        self.windows += 1
        window = self.windows
        n = len(self._lat)
        p95 = window_p95(self._lat)
        breaches = 0
        for v in self._lat:
            if v > self.target_p95_us:
                breaches += 1
        burn = (breaches / n) / self.breach_budget if n else 0.0
        ebusy_rate = min(1.0, self._ebusy_ops / n) if n else 0.0
        shed_total = 0
        qdepth = 0
        for guard in self.guards:
            shed_total += guard.shed
            depth = guard.queue_depth()
            if depth > qdepth:
                qdepth = depth
        shed = shed_total - self._shed_seen
        self._shed_seen = shed_total
        bus = self.sim.bus
        if bus.recorder.active:
            bus.record(SLO_WINDOW, {
                "controller": self.name, "window": window, "n": n,
                "p95": p95, "ebusy_rate": ebusy_rate, "burn": burn,
                "shed": shed, "qdepth": qdepth, "level": self.level,
                "deadline": self.deadline_us, "mode": MODE_ADAPTIVE})
        self._lat = []
        self._ebusy_ops = 0
        self._failed_ops = 0
        if n < self.min_samples or not self._dwell_elapsed(window):
            return
        self._decide(window, p95, ebusy_rate, burn)

    def _dwell_elapsed(self, window):
        last = self._last_transition_window
        return last is None or window - last >= self.dwell_windows

    def _decide(self, window, p95, ebusy_rate, burn):
        """At most ONE transition per window, and only outside the bands."""
        hi = self.target_p95_us * (1.0 + self.hysteresis)
        lo = self.target_p95_us * (1.0 - self.hysteresis)
        burning = burn >= 1.0
        if ebusy_rate >= self.reject_flood:
            # Rejection flood: every replica is fast-rejecting, so further
            # tightening only wastes failover work — relax toward the
            # ceiling (the "middle gear" a static deadline lacks).
            if self.adaptive_deadline_us < self.ceiling_us:
                self._apply(window, "relax",
                            deadline=min(self.ceiling_us,
                                         self.adaptive_deadline_us
                                         * self.step))
            elif self.level < self.max_level:
                self._apply(window, "shed-more", level=self.level + 1)
        elif burning or (p95 is not None and p95 > hi):
            # Tail blowing the budget: tighten first (earlier EBUSY
            # failover), then shed lower tiers once the floor is reached.
            if self.adaptive_deadline_us > self.floor_us:
                self._apply(window, "tighten",
                            deadline=max(self.floor_us,
                                         self.adaptive_deadline_us
                                         / self.step))
            elif self.level < self.max_level:
                self._apply(window, "shed-more", level=self.level + 1)
        elif burn <= self.upgrade_burn and (p95 is None or p95 < lo):
            # Healthy window: upgrade one notch — but never while the
            # error budget is burning (monotonic-safe recovery).
            if self.level > 0:
                self._apply(window, "shed-less", level=self.level - 1)
            elif self.adaptive_deadline_us < self.baseline_deadline_us:
                self._apply(window, "recover",
                            deadline=min(self.baseline_deadline_us,
                                         self.adaptive_deadline_us
                                         * self.step))
            elif self.adaptive_deadline_us > self.baseline_deadline_us:
                self._apply(window, "recover",
                            deadline=max(self.baseline_deadline_us,
                                         self.adaptive_deadline_us
                                         / self.step))

    def _apply(self, window, kind, deadline=None, level=None):
        if deadline is not None:
            self.adaptive_deadline_us = deadline
        if level is not None:
            self._set_level(level)
        self._last_transition_window = window
        self.transitions.append((window, kind, self.deadline_us, self.level))
        bus = self.sim.bus
        if bus.recorder.active:
            bus.record(SLO_TRANSITION, {
                "controller": self.name, "kind": kind,
                "deadline": self.deadline_us, "level": self.level,
                "mode": MODE_ADAPTIVE, "window": window})

    def _set_level(self, level):
        self.level = max(0, min(level, self.max_level))
        for guard in self.guards:
            guard.set_level(self.level)

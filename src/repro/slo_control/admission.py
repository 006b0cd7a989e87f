"""Per-node admission backpressure: shed the lowest tier first.

An :class:`AdmissionGuard` sits at the very top of one node's OS read
path (``OS.read`` consults ``os.admission`` before touching the cache).
When the SLO controller raises the node's degradation level, the guard
starts fast-rejecting reads from the *lowest* work tiers — background
scavengers first, never the foreground serving tier — with the same
cheap EBUSY reply MittOS uses for predicted deadline violations.  The
client sees an ordinary EBUSY and fails over; no IO is ever queued for
shed work, which is exactly the graceful-degradation middle gear a
static deadline lacks.

Work tiers (derived from the request's IO class and priority):

========  ================================================================
``0``     RT class — latency-critical, **never** shed at any level
``0..7``  BE class — the CFQ priority (the serving default is 4)
``8``     IDLE class — background flushers / scavengers, shed first
========  ================================================================

Degradation level ``k`` sheds every tier ``>= 9 - k``; with the default
``max_level = 4`` the threshold never drops below tier 5, so default
priority-4 foreground clients are structurally un-sheddable.  An
optional ``qdepth_limit`` adds queue-depth backpressure: while the
node's outstanding-IO depth (scheduler queue plus device in-flight,
i.e. NCQ slots in use, which only a disk counts) is at or past the
limit, the sheddable tiers (``>= 5``) are rejected even at level 0 —
per-node overload protection that needs no controller round trip.
"""

from repro.devices.request import IoClass
from repro.obs.events import SLO_SHED

#: The lowest tier that queue-depth backpressure may shed (tiers below
#: this are only ever shed by explicit degradation levels — never 0-4).
SHEDDABLE_TIER = 5


def work_tier(ioclass, priority):
    """Map (IO class, CFQ priority) to the guard's shedding tier."""
    if ioclass is IoClass.RT:
        return 0
    if ioclass is IoClass.IDLE:
        return 8
    return max(0, min(int(priority), 7))


class AdmissionGuard:
    """Tiered fast-reject gate for one storage node's read path."""

    def __init__(self, sim, node_id, max_level=4, qdepth_limit=None):
        self.sim = sim
        self.node_id = node_id
        self.max_level = int(max_level)
        self.qdepth_limit = qdepth_limit
        self.level = 0
        self.admitted = 0
        self.shed = 0
        self._os = None

    def attach(self, os):
        """Install this guard on one node's OS (``os.admission``)."""
        self._os = os
        os.admission = self
        return self

    def set_level(self, level):
        """Controller-driven degradation level (clamped, monotone per
        call — the controller moves one notch at a time)."""
        self.level = max(0, min(int(level), self.max_level))

    def queue_depth(self):
        """Outstanding IOs on the node: scheduler queue plus device
        in-flight.  The dispatch loop drains the scheduler into the
        device whenever an NCQ slot is free, so under load the pressure
        shows up as ``device.in_device``, not ``scheduler.queued`` —
        counting only the latter would read ~0 at any realistic depth.
        The device must count its requests in flight, as a disk does;
        an SSD, whose chips keep only busy horizons, has no such count,
        so a guard on an SSD node raises instead of reading 0.  An OS
        without a device counts its scheduler queue alone."""
        if self._os is None:
            return 0
        device = getattr(self._os, "device", None)
        in_device = device.in_device if device is not None else 0
        return self._os.scheduler.queued + in_device

    @property
    def shed_threshold(self):
        """Lowest tier currently shed by the degradation level (9 means
        nothing is shed)."""
        return 9 - self.level

    def admit(self, pid, ioclass, priority):
        """Admission verdict for one read; False means shed (EBUSY)."""
        tier = work_tier(ioclass, priority)
        queued = self.queue_depth()
        shed = tier >= self.shed_threshold
        if (not shed and self.qdepth_limit is not None
                and tier >= SHEDDABLE_TIER
                and queued >= self.qdepth_limit):
            shed = True
        if not shed:
            self.admitted += 1
            return True
        self.shed += 1
        bus = self.sim.bus
        if bus.recorder.active:
            bus.record(SLO_SHED, {
                "node": self.node_id, "pid": pid, "tier": tier,
                "level": self.level, "queued": queued})
        return False

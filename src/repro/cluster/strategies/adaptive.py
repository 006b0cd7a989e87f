"""The adaptive strategy: MittOS failover under SLO feedback control.

``AdaptiveStrategy`` is :class:`MittosStrategy` composed with a
:class:`~repro.slo_control.SloController`: the static per-user deadline
becomes the controller's *baseline*, and the effective deadline each
get() carries is the controller's current adaptive deadline.  Every
completed op feeds its end-to-end latency back into the controller's
current observation window, closing the feedback loop without touching
the trace plane (the controller must work with recording off).

Per-node backpressure is opt-in: :meth:`guard_nodes` installs one
:class:`~repro.slo_control.AdmissionGuard` per replica and registers it
with the controller, which then drives every guard's degradation level.
"""

from repro.cluster.strategies.mittos import MittosStrategy
from repro.errors import EIO
from repro.slo_control import AdmissionGuard, SloController


class AdaptiveStrategy(MittosStrategy):
    """EBUSY-driven failover with a feedback-controlled deadline."""

    name = "adaptive"

    def __init__(self, cluster, deadline_us, controller=None, **kwargs):
        controller_kwargs = {}
        for knob in ("floor_us", "ceiling_us", "target_p95_us", "window_us",
                     "dwell_windows", "breach_budget", "hysteresis", "step",
                     "reject_flood", "upgrade_burn", "min_samples",
                     "max_level"):
            if knob in kwargs:
                controller_kwargs[knob] = kwargs.pop(knob)
        if controller is None:
            controller = SloController(cluster.sim, deadline_us,
                                       **controller_kwargs)
        elif controller_kwargs:
            raise ValueError("pass controller knobs or a controller, "
                             "not both")
        super().__init__(cluster, deadline_us, controller=controller,
                         **kwargs)

    def guard_nodes(self, qdepth_limit=None):
        """Install one admission guard per replica, controller-driven.

        A guard reads its node's ``device.in_device``, so the nodes must
        be disk nodes; on an SSD node, which has no such count, every
        admitted read raises."""
        guards = []
        for node in self.cluster.nodes:
            guard = AdmissionGuard(self.sim, node.node_id,
                                   max_level=self.controller.max_level,
                                   qdepth_limit=qdepth_limit)
            guard.attach(node.os)
            self.controller.attach_guard(guard)
            guards.append(guard)
        return guards

    def arm(self, horizon_us):
        """Pre-schedule the controller's observation-window grid."""
        return self.controller.arm(horizon_us)

    def get(self, key):
        start = self.sim.now
        proc = super().get(key)
        proc.add_callback(lambda ev: self._observe_op(ev, start))
        return proc

    def _observe_op(self, proc_event, start):
        failed = not proc_event.ok or proc_event.value is EIO
        self.controller.observe_op(self.sim.now - start, failed=failed)

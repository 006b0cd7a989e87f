"""Adaptive SLO control plane.

A deterministic sim-time feedback loop over the MittOS deadline:

* :class:`~repro.slo_control.controller.SloController` — windowed p95 /
  EBUSY-rate / error-budget-burn feedback that adapts the effective
  deadline inside operator floor/ceiling bands (hysteresis + minimum
  dwell, so it never flaps) and drives per-node degradation levels;
* :class:`~repro.slo_control.admission.AdmissionGuard` — per-node
  tiered admission backpressure on the OS read path (shed lowest tier
  first, foreground tiers structurally un-sheddable).

The ``adaptive`` client strategy (in ``STRATEGIES``) composes
``MittosStrategy`` with a controller; the ``slosweep`` experiment
benchmarks it against the static-deadline baseline.
"""

from repro.slo_control.admission import (SHEDDABLE_TIER, AdmissionGuard,
                                         work_tier)
from repro.slo_control.controller import (MODE_ADAPTIVE, SloController,
                                          window_p95)

__all__ = [
    "AdmissionGuard", "SHEDDABLE_TIER", "work_tier",
    "SloController", "window_p95", "MODE_ADAPTIVE",
]

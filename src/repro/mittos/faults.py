"""Prediction-error injection (§7.7).

The paper asks whether a simpler, less accurate device model would still be
effective, by injecting controlled decision errors:

* false-*negative* injection: when MittOS decides to reject, with probability
  E let the IO continue (no EBUSY).  Only admission-time decisions pass
  through :meth:`FaultInjector.apply`; MittCFQ's late bump-back EBUSYs
  (§4.2) do not, so at E=100% MittOS on CFQ equals Base only with
  ``cancel_bumped=False``;
* false-*positive* injection: when the IO would meet its deadline, with
  probability E return EBUSY anyway — at E=100% every IO fails over and the
  tail is worse than Base.

The injector is also one member of the cluster-scale fault plane
(``repro.faults``): ``FaultPlane.decision_injector`` builds one on the
``faults/decision`` stream from the spec's flip rates.
"""


class FaultInjector:
    """Flips admission decisions at configured rates."""

    def __init__(self, rng, false_negative_rate=0.0, false_positive_rate=0.0):
        for rate in (false_negative_rate, false_positive_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"error rate out of range: {rate}")
        self.rng = rng
        self.false_negative_rate = false_negative_rate
        self.false_positive_rate = false_positive_rate
        self.injected_fn = 0
        self.injected_fp = 0

    def apply(self, accept):
        """Return the (possibly flipped) decision."""
        if not accept and self.false_negative_rate > 0:
            if self.rng.random() < self.false_negative_rate:
                self.injected_fn += 1
                return True
        elif accept and self.false_positive_rate > 0:
            if self.rng.random() < self.false_positive_rate:
                self.injected_fp += 1
                return False
        return accept
